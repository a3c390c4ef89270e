//! `reds-ooc` — out-of-core subgroup search over a paged column store.
//!
//! The streaming pipeline (`reds-stream`) already *builds* a pool of
//! `L ≫ 10⁶` pseudo-labeled rows in bounded memory, but subgroup
//! discovery then loads the whole thing back: `O(L·M)` points plus an
//! `O(L)` sort order per column. This crate keeps one bit per row
//! resident and pages everything else. [`OocPool`] opens a `.redsart`
//! pool artifact written by `PoolBuilder::finish_art` and is the paged
//! [`PageSource`](reds_data::PageSource) of `reds-data`'s sorted-column
//! store, so it serves the [`ColumnAccess`](reds_data::ColumnAccess)
//! surface — sorted-column scans, label sums, deactivation cuts — with
//! the store's one search (rank watermarks, dead pages skipped and
//! passed by their fences, a resident bitset of `L/8` bytes, 31 KiB at
//! `L = 2.5·10⁵`, the only per-row state). What this crate adds is how
//! a page is read:
//!
//! * **positioned reads, never the whole file** — an
//!   [`ArtScan`](reds_art::ArtScan) verifies the full checksum chain in
//!   one streaming pass, the DATASET and COLUMN headers go through the
//!   same decoders ([`DatasetHeader`](reds_art::DatasetHeader),
//!   [`ColumnHeader`](reds_art::ColumnHeader)) the in-memory reader
//!   uses, and then every page is fetched with `pread`; copying or
//!   mapping the file would make the whole artifact count toward peak
//!   RSS and defeat the memory budget;
//! * **fixed-size pages** of the column's 12-byte `(key, row)`
//!   records, rank-addressable (`rank → page = rank / page_rows`),
//!   with per-page min/max key fences from the artifact's
//!   [`SECTION_PAGE_INDEX`](reds_art::SECTION_PAGE_INDEX);
//! * **an exact-LRU page cache with a hard byte budget** shared by
//!   record, label, and point pages ([`OocConfig::cache_bytes`]); every
//!   page has a dense id, so a hit is an index into a page table;
//! * **label sums bucketed by label page**, so a candidate's removed
//!   rows fetch each label page once.
//!
//! The search and its visit orders are the in-memory backing's
//! (ascending `(value, row id)` per column; ascending row order for
//! the active label sum, the caller's order for
//! [`label_sum`](reds_data::ColumnAccess::label_sum)), so a discovery
//! run over [`OocPool`] is bit-identical to one over the materialized
//! pool.

#![warn(missing_docs)]

mod cache;
mod store;

pub use store::{OocPool, OocStats};

/// Default page-cache budget: 48 MiB — comfortably inside the 64 MiB
/// process budget the out-of-core bench gates on, leaving room for the
/// membership bitset (`L/8` bytes) and scan scratch.
pub const DEFAULT_CACHE_BYTES: usize = 48 << 20;

/// Configuration of an out-of-core pool.
#[derive(Debug, Clone)]
pub struct OocConfig {
    /// Hard byte budget of the shared record/label/point page cache,
    /// taken as given: the cache retains at most this many bytes, except
    /// that the page being handed out is always kept, so a budget under
    /// one page caches only that page. The membership bitset, `L/8`
    /// bytes, is held on top.
    pub cache_bytes: usize,
    /// Rows per column page when *building* an artifact for this store
    /// ([`reds_art::DEFAULT_PAGE_ROWS`] by default). Readers take the
    /// page size from the artifact's page index, not from this field.
    pub page_rows: u32,
}

impl Default for OocConfig {
    fn default() -> Self {
        Self {
            cache_bytes: DEFAULT_CACHE_BYTES,
            page_rows: reds_art::DEFAULT_PAGE_ROWS,
        }
    }
}

impl OocConfig {
    /// Default configuration ([`DEFAULT_CACHE_BYTES`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the page-cache byte budget.
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Sets the rows-per-page of artifacts built for this store.
    pub fn with_page_rows(mut self, rows: u32) -> Self {
        self.page_rows = rows;
        self
    }
}

/// Structured failure opening or validating an out-of-core pool.
#[derive(Debug)]
pub enum OocError {
    /// Filesystem failure opening or reading the artifact.
    Io(std::io::Error),
    /// The artifact failed verification or is structurally unusable.
    Art(reds_art::ArtError),
    /// The artifact is valid but this reader cannot serve it (e.g. a
    /// column is not fully merged, or a page index is missing).
    Unsupported(String),
}

impl std::fmt::Display for OocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OocError::Io(e) => write!(f, "out-of-core io failure: {e}"),
            OocError::Art(e) => write!(f, "out-of-core artifact failure: {e}"),
            OocError::Unsupported(msg) => write!(f, "unsupported pool artifact: {msg}"),
        }
    }
}

impl std::error::Error for OocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OocError::Io(e) => Some(e),
            OocError::Art(e) => Some(e),
            OocError::Unsupported(_) => None,
        }
    }
}

impl From<std::io::Error> for OocError {
    fn from(e: std::io::Error) -> Self {
        OocError::Io(e)
    }
}

impl From<reds_art::ArtError> for OocError {
    fn from(e: reds_art::ArtError) -> Self {
        OocError::Art(e)
    }
}
