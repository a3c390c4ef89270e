//! Byte-level layout constants and bounds-checked decoding primitives.
//!
//! Everything in a `.redsart` file is **little-endian**. The header is
//! 48 bytes, every section payload starts on an 8-byte boundary
//! (zero-padded between sections), and the table of contents sits at
//! the end of the file so writers can stream payloads without knowing
//! their sizes up front. `docs/artifact-format.md` is the normative
//! description.

use crate::{corrupt, ArtError};

/// File magic: `REDSART1`.
pub const MAGIC: [u8; 8] = *b"REDSART1";
/// Current (and only) format version.
pub const VERSION: u32 = 1;
/// Fixed header size: magic(8) version(4) section_count(4)
/// toc_offset(8) file_len(8) file_fnv(8) reserved(8).
pub const HEADER_LEN: usize = 48;
/// Byte offset of the whole-file checksum inside the header (zeroed
/// while the checksum itself is computed).
pub const FNV_FIELD_OFFSET: usize = 32;
/// Size of one table-of-contents entry: kind(4) reserved(4) offset(8)
/// len(8) fnv(8).
pub const TOC_ENTRY_LEN: usize = 32;

/// Section kind: artifact metadata (function, seeds, pool design).
pub const SECTION_META: u32 = 1;
/// Section kind: a fitted model (forest / GBDT / SVM arenas).
pub const SECTION_MODEL: u32 = 2;
/// Section kind: a row-major dataset (training points + labels).
pub const SECTION_DATASET: u32 = 3;
/// Section kind: one column's `(key u64, row u32)` sorted runs.
pub const SECTION_COLUMN: u32 = 4;
/// Section kind: one column's page index — fixed-size-page min/max key
/// fences over the column's merged record order (out-of-core readers
/// use them for page skipping and tie-run boundary detection).
pub const SECTION_PAGE_INDEX: u32 = 5;

/// Model family code: random forest ("f").
pub const FAMILY_FOREST: u32 = 0;
/// Model family code: gradient-boosted trees ("x").
pub const FAMILY_GBDT: u32 = 1;
/// Model family code: RBF-kernel SVM ("s").
pub const FAMILY_SVM: u32 = 2;

/// A bounds-checked little-endian cursor over a section payload. Every
/// read returns a structured error instead of panicking — this is the
/// only way payload bytes are decoded.
pub(crate) struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Offset of the next unread byte (relative to the payload start).
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Takes the next `n` bytes.
    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ArtError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt(format!("section truncated reading {what}")))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, ArtError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, ArtError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, ArtError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Decodes the next `n` little-endian `W`-byte values with `decode`
    /// (`u32::from_le_bytes`, `f64::from_le_bytes`). The bytes are taken
    /// (bounds-checked) before the vector is allocated, so an untrusted
    /// `n` never sizes an allocation beyond the payload.
    pub(crate) fn array<T, const W: usize>(
        &mut self,
        n: usize,
        what: &str,
        decode: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, ArtError> {
        let len = n
            .checked_mul(W)
            .ok_or_else(|| corrupt(format!("{what} size overflows")))?;
        let bytes = self.take(len, what)?;
        Ok(bytes
            .chunks_exact(W)
            .map(|c| decode(c.try_into().expect("W-byte chunk")))
            .collect())
    }

    /// A `u64` count that must also fit `usize` (32-bit targets).
    pub(crate) fn count(&mut self, what: &str) -> Result<usize, ArtError> {
        usize::try_from(self.u64(what)?)
            .map_err(|_| corrupt(format!("{what} does not fit this address space")))
    }

    /// Skips alignment padding up to the next multiple of `align`
    /// bytes (relative to the payload start), requiring zeros.
    pub(crate) fn align(&mut self, align: usize) -> Result<(), ArtError> {
        let rem = self.pos % align;
        if rem != 0 {
            let pad = self.take(align - rem, "alignment padding")?;
            if pad.iter().any(|&b| b != 0) {
                return Err(corrupt("nonzero alignment padding"));
            }
        }
        Ok(())
    }

    /// Asserts the payload is fully consumed — trailing garbage in a
    /// section is a format violation, not slack.
    pub(crate) fn finish(self, what: &str) -> Result<(), ArtError> {
        if self.pos != self.buf.len() {
            return Err(corrupt(format!(
                "{what} section has {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}
