//! Byte-level layout constants, the header and table-of-contents checks
//! both readers share, and bounds-checked decoding primitives.
//!
//! Everything in a `.redsart` file is **little-endian**. The header is
//! 48 bytes, every section payload starts on an 8-byte boundary
//! (zero-padded between sections), and the table of contents sits at
//! the end of the file so writers can stream payloads without knowing
//! their sizes up front. `docs/artifact-format.md` is the normative
//! description.

use crate::{corrupt, ArtError, Checksum};

/// File magic: `REDSART1`.
pub const MAGIC: [u8; 8] = *b"REDSART1";
/// Current (and only readable) format version. Version 1 used FNV-1a
/// checksums; version 2 uses [`Checksum`](crate::Checksum).
pub const VERSION: u32 = 2;
/// Fixed header size: magic(8) version(4) section_count(4)
/// toc_offset(8) file_len(8) file_sum(8) reserved(8).
pub const HEADER_LEN: usize = 48;
/// Byte offset of the whole-file checksum inside the header (zeroed
/// while the checksum itself is computed).
pub const SUM_FIELD_OFFSET: usize = 32;
/// Size of one table-of-contents entry: kind(4) reserved(4) offset(8)
/// len(8) sum(8).
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

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4 bytes"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// The fixed header, checked by both readers before any checksum.
pub(crate) struct Header {
    pub(crate) section_count: usize,
    pub(crate) toc_offset: u64,
    /// The stored whole-file checksum.
    file_sum: u64,
}

impl Header {
    /// Checks, in order: magic, version, recorded against actual file
    /// length (truncation and extension), and TOC geometry — the writer
    /// places the TOC last, so it must end exactly at the file end,
    /// which bounds `section_count` before any multiplication can
    /// overflow.
    pub(crate) fn parse(head: &[u8; HEADER_LEN], actual_len: u64) -> Result<Self, ArtError> {
        if head[..8] != MAGIC {
            return Err(corrupt("bad magic (not a .redsart file)"));
        }
        let version = le_u32(&head[8..12]);
        if version != VERSION {
            return Err(ArtError::Unsupported(format!(
                "format version {version} (this build reads version {VERSION}); \
                 repack from the reds-json document with reds_pack"
            )));
        }
        let section_count = le_u32(&head[12..16]) as usize;
        let toc_offset = le_u64(&head[16..24]);
        let file_len = le_u64(&head[24..32]);
        if file_len != actual_len {
            return Err(corrupt(format!(
                "recorded length {file_len} != actual length {actual_len} (truncated or extended)"
            )));
        }
        let toc_len = (section_count as u64).checked_mul(TOC_ENTRY_LEN as u64);
        let toc_end = toc_len.and_then(|l| toc_offset.checked_add(l));
        if toc_offset < HEADER_LEN as u64
            || !toc_offset.is_multiple_of(8)
            || toc_end != Some(file_len)
        {
            return Err(corrupt("table of contents does not span to the file end"));
        }
        Ok(Self {
            section_count,
            toc_offset,
            file_sum: le_u64(&head[SUM_FIELD_OFFSET..SUM_FIELD_OFFSET + 8]),
        })
    }

    /// Starts the whole-file checksum: the header with its checksum
    /// field zeroed. The caller feeds the rest of the file.
    pub(crate) fn sum_start(head: &[u8; HEADER_LEN]) -> Checksum {
        let mut sum = Checksum::new();
        sum.update(&head[..SUM_FIELD_OFFSET]);
        sum.update(&[0u8; 8]);
        sum.update(&head[SUM_FIELD_OFFSET + 8..]);
        sum
    }

    /// Compares the whole-file checksum (from [`Header::sum_start`] fed
    /// the rest of the file) with the stored one.
    pub(crate) fn verify(&self, sum: &Checksum) -> Result<(), ArtError> {
        let computed = sum.finish();
        if computed != self.file_sum {
            return Err(corrupt(format!(
                "file checksum mismatch (stored {:#018x}, computed {computed:#018x})",
                self.file_sum
            )));
        }
        Ok(())
    }
}

/// One table-of-contents entry, bounds-checked against the payload area.
pub(crate) struct TocEntry {
    pub(crate) kind: u32,
    pub(crate) offset: u64,
    pub(crate) len: u64,
    /// The stored payload checksum.
    sum: u64,
}

impl TocEntry {
    /// Decodes entry `i` and checks that its payload starts 8-aligned
    /// inside `[HEADER_LEN, toc_offset)` and ends by `toc_offset`.
    pub(crate) fn parse(e: &[u8], i: usize, toc_offset: u64) -> Result<Self, ArtError> {
        let entry = Self {
            kind: le_u32(&e[..4]),
            offset: le_u64(&e[8..16]),
            len: le_u64(&e[16..24]),
            sum: le_u64(&e[24..32]),
        };
        let end = entry.offset.checked_add(entry.len);
        if entry.offset < HEADER_LEN as u64
            || !entry.offset.is_multiple_of(8)
            || end.is_none()
            || end > Some(toc_offset)
        {
            return Err(corrupt(format!("section {i} is out of bounds")));
        }
        Ok(entry)
    }

    /// Compares the checksum of entry `i`'s payload with the stored one.
    pub(crate) fn verify(&self, i: usize, sum: &Checksum) -> Result<(), ArtError> {
        if sum.finish() != self.sum {
            return Err(corrupt(format!(
                "section {i} (kind {}) checksum mismatch",
                self.kind
            )));
        }
        Ok(())
    }
}

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
