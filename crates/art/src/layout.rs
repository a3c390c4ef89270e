//! Byte-level layout constants, the verification chain both readers
//! run ([`verify`]), the header, table-of-contents and section-header
//! checks it and they share, and bounds-checked decoding primitives.
//!
//! Everything in a `.redsart` file is **little-endian**. The header is
//! 48 bytes, every section payload starts on an 8-byte boundary
//! (zero-padded between sections), and the table of contents sits at
//! the end of the file so writers can stream payloads without knowing
//! their sizes up front. `docs/artifact-format.md` is the normative
//! description.

use crate::{corrupt, ArtError, Checksum, ScanSection};

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

/// The fixed header, checked before any checksum.
struct Header {
    section_count: usize,
    toc_offset: u64,
    /// The stored whole-file checksum.
    file_sum: u64,
}

impl Header {
    /// Checks, in order: magic, version, recorded against actual file
    /// length (truncation and extension), and TOC geometry — the writer
    /// places the TOC last, so it must end exactly at the file end,
    /// which bounds `section_count` before any multiplication can
    /// overflow.
    fn parse(head: &[u8; HEADER_LEN], actual_len: u64) -> Result<Self, ArtError> {
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
    fn sum_start(head: &[u8; HEADER_LEN]) -> Checksum {
        let mut sum = Checksum::new();
        sum.update(&head[..SUM_FIELD_OFFSET]);
        sum.update(&[0u8; 8]);
        sum.update(&head[SUM_FIELD_OFFSET + 8..]);
        sum
    }

    /// Compares the whole-file checksum (from [`Header::sum_start`] fed
    /// the rest of the file) with the stored one.
    fn verify(&self, sum: &Checksum) -> Result<(), ArtError> {
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
struct TocEntry {
    kind: u32,
    offset: u64,
    len: u64,
    /// The stored payload checksum.
    sum: u64,
}

impl TocEntry {
    /// Decodes entry `i` and checks that its payload starts 8-aligned
    /// inside `[HEADER_LEN, toc_offset)` and ends by `toc_offset`.
    fn parse(e: &[u8], i: usize, toc_offset: u64) -> Result<Self, ArtError> {
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
    fn verify(&self, i: usize, sum: &Checksum) -> Result<(), ArtError> {
        if sum.finish() != self.sum {
            return Err(corrupt(format!(
                "section {i} (kind {}) checksum mismatch",
                self.kind
            )));
        }
        Ok(())
    }
}

/// Bytes per block of the verification pass: small enough that the
/// second checksum of a block (its section's) finds it in cache.
pub(crate) const VERIFY_BLOCK: usize = 64 * 1024;

/// Verifies a whole `.redsart` file and returns its table of contents:
/// the one verification chain of both readers. `actual_len` is the
/// file's length; `read_at(offset, buf)` fills `buf` from the file (the
/// header, then the table of contents); `stream(visit)` hands `visit`
/// every byte from [`HEADER_LEN`] to the end, in order, in blocks.
///
/// The checks, each failing with its own error, run in this order: a
/// length that holds the header; [`Header::parse`] (magic, version,
/// recorded length, TOC geometry); the whole-file checksum; then, entry
/// by entry, the bounds and the payload checksum. One sequential pass
/// feeds both kinds of checksum, so every byte is read once: the TOC,
/// which the geometry check confines to the file's tail, is read ahead
/// of the pass, and each block of the pass goes to the whole-file sum
/// and to the sum of every section it overlaps. Entries after the
/// first out-of-bounds one are not summed, since the chain stops there.
pub(crate) fn verify(
    actual_len: u64,
    mut read_at: impl FnMut(u64, &mut [u8]) -> Result<(), ArtError>,
    stream: impl FnOnce(&mut dyn FnMut(&[u8])) -> Result<(), ArtError>,
) -> Result<Vec<ScanSection>, ArtError> {
    if actual_len < HEADER_LEN as u64 {
        return Err(corrupt(format!(
            "file of {actual_len} bytes is shorter than the {HEADER_LEN}-byte header"
        )));
    }
    let mut head = [0u8; HEADER_LEN];
    read_at(0, &mut head)?;
    let header = Header::parse(&head, actual_len)?;
    // Bounded by the file length, which the geometry check spans.
    let mut toc = vec![0u8; header.section_count * TOC_ENTRY_LEN];
    read_at(header.toc_offset, &mut toc)?;
    let mut entries = Vec::with_capacity(header.section_count);
    let mut out_of_bounds = None;
    for (i, e) in toc.chunks_exact(TOC_ENTRY_LEN).enumerate() {
        match TocEntry::parse(e, i, header.toc_offset) {
            Ok(entry) => entries.push(entry),
            Err(e) => {
                out_of_bounds = Some(e);
                break;
            }
        }
    }

    let mut file_sum = Header::sum_start(&head);
    let mut sums = vec![Checksum::new(); entries.len()];
    // Entries by payload offset; `open` holds those whose payload the
    // pass is inside, `pos` the file offset of the next streamed byte.
    let mut by_offset: Vec<usize> = (0..entries.len()).collect();
    by_offset.sort_by_key(|&i| entries[i].offset);
    let mut by_offset = by_offset.into_iter().peekable();
    let mut open: Vec<usize> = Vec::new();
    let mut pos = HEADER_LEN as u64;
    stream(&mut |block| {
        file_sum.update(block);
        let end = pos + block.len() as u64;
        while let Some(i) = by_offset.next_if(|&i| entries[i].offset < end) {
            open.push(i);
        }
        open.retain(|&i| {
            let e = &entries[i];
            let (from, to) = (e.offset.max(pos), (e.offset + e.len).min(end));
            if from < to {
                sums[i].update(&block[(from - pos) as usize..(to - pos) as usize]);
            }
            e.offset + e.len > end
        });
        pos = end;
    })?;
    header.verify(&file_sum)?;
    for (i, (entry, sum)) in entries.iter().zip(&sums).enumerate() {
        entry.verify(i, sum)?;
    }
    if let Some(e) = out_of_bounds {
        return Err(e);
    }
    Ok(entries
        .iter()
        .map(|e| ScanSection {
            kind: e.kind,
            offset: e.offset,
            len: e.len,
        })
        .collect())
}

/// A `u64` from the file that must also fit `usize` (32-bit targets).
fn usize_of(v: u64, what: &str) -> Result<usize, ArtError> {
    usize::try_from(v).map_err(|_| corrupt(format!("{what} does not fit this address space")))
}

/// The section-header decoders' view of an in-memory payload: fills a
/// buffer from a payload offset.
pub(crate) fn payload_reader(
    payload: &[u8],
) -> impl FnMut(u64, &mut [u8]) -> Result<(), ArtError> + '_ {
    move |at, buf| {
        let src = usize::try_from(at)
            .ok()
            .and_then(|at| payload.get(at..at.checked_add(buf.len())?))
            .ok_or_else(|| corrupt("read past the section payload"))?;
        buf.copy_from_slice(src);
        Ok(())
    }
}

/// The header of a DATASET section: `n: u64` and `m: u64`, followed by
/// `n·m` row-major points and `n` labels, all `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetHeader {
    n: usize,
    m: usize,
}

impl DatasetHeader {
    /// Header length in bytes; the points start right after it.
    pub const LEN: usize = 16;

    /// Decodes the header of a DATASET payload of verified length
    /// `payload_len`, reading it through `read(offset, buf)`, and checks
    /// that the payload is exactly `16 + 8·(n·m + n)` bytes (checked
    /// arithmetic). Reads nothing past the header.
    pub fn read(
        payload_len: u64,
        read: impl FnOnce(u64, &mut [u8]) -> Result<(), ArtError>,
    ) -> Result<Self, ArtError> {
        if payload_len < Self::LEN as u64 {
            return Err(corrupt("dataset section is shorter than its header"));
        }
        let mut head = [0u8; Self::LEN];
        read(0, &mut head)?;
        let (n, m) = (le_u64(&head[..8]), le_u64(&head[8..]));
        let want = n
            .checked_mul(m)
            .and_then(|cells| cells.checked_add(n))
            .and_then(|values| values.checked_mul(8))
            .and_then(|bytes| bytes.checked_add(Self::LEN as u64));
        if want != Some(payload_len) {
            return Err(corrupt(format!(
                "dataset section of {payload_len} bytes does not hold n = {n}, m = {m}"
            )));
        }
        Ok(Self {
            n: usize_of(n, "dataset row count")?,
            m: usize_of(m, "dataset column count")?,
        })
    }

    /// Row count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Column count.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Payload offset of the first label (the points end there).
    pub fn labels_at(&self) -> u64 {
        // Cannot overflow: `read` checked the payload holds all points.
        Self::LEN as u64 + 8 * self.n as u64 * self.m as u64
    }
}

/// The header of a COLUMN section: `column: u32`, `reserved: u32`
/// (zero), `n_rows: u64`, `run_count: u64` and one `u64` length per
/// run, followed by the packed 12-byte records and zero padding to 8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnHeader {
    column: usize,
    n_rows: usize,
    runs: Vec<usize>,
}

impl ColumnHeader {
    /// Length of the fields before the run table.
    const FIXED_LEN: u64 = 24;

    /// Decodes the header of a COLUMN payload of verified length
    /// `payload_len`, reading it through `read(offset, buf)`, and
    /// checks: `reserved == 0`; a payload of exactly the header, the
    /// records and the padding to 8 (checked arithmetic); run lengths
    /// summing to `n_rows`; zero padding. Reads the header and the ≤ 4
    /// padding bytes, never the records.
    pub fn read(
        payload_len: u64,
        mut read: impl FnMut(u64, &mut [u8]) -> Result<(), ArtError>,
    ) -> Result<Self, ArtError> {
        if payload_len < Self::FIXED_LEN {
            return Err(corrupt("column section is shorter than its header"));
        }
        let mut fixed = [0u8; Self::FIXED_LEN as usize];
        read(0, &mut fixed)?;
        let column = le_u32(&fixed[..4]);
        if le_u32(&fixed[4..8]) != 0 {
            return Err(corrupt("column reserved field must be zero"));
        }
        let (n_rows, run_count) = (le_u64(&fixed[8..16]), le_u64(&fixed[16..24]));
        // The record area's bounds, proven to fit the payload before the
        // run table (sized by the untrusted count) is read.
        let records_at = run_count
            .checked_mul(8)
            .and_then(|table| table.checked_add(Self::FIXED_LEN));
        let records_end = records_at
            .and_then(|at| at.checked_add(n_rows.checked_mul(12)?))
            .filter(|end| end.checked_next_multiple_of(8) == Some(payload_len));
        let (Some(records_at), Some(records_end)) = (records_at, records_end) else {
            return Err(corrupt(format!(
                "column {column} section of {payload_len} bytes does not hold \
                 {run_count} runs of {n_rows} rows"
            )));
        };
        let mut table = vec![0u8; usize_of(records_at - Self::FIXED_LEN, "run table")?];
        read(Self::FIXED_LEN, &mut table)?;
        let mut runs = Vec::with_capacity(table.len() / 8);
        let mut total = 0u64;
        for len in table.chunks_exact(8).map(le_u64) {
            total = total
                .checked_add(len)
                .ok_or_else(|| corrupt("run lengths overflow"))?;
            runs.push(usize_of(len, "run length")?);
        }
        if total != n_rows {
            return Err(corrupt(format!(
                "run lengths sum to {total}, column records {n_rows} rows"
            )));
        }
        let mut pad = [0u8; 8];
        let pad = &mut pad[..(payload_len - records_end) as usize];
        read(records_end, pad)?;
        if pad.iter().any(|&b| b != 0) {
            return Err(corrupt("nonzero alignment padding"));
        }
        Ok(Self {
            column: column as usize,
            n_rows: usize_of(n_rows, "column row count")?,
            runs,
        })
    }

    /// Which dataset column the records sort.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Records across all runs.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Records in each sorted run, in file order; they sum to `n_rows`.
    pub fn runs(&self) -> &[usize] {
        &self.runs
    }

    /// Payload offset of the first record.
    pub fn records_at(&self) -> u64 {
        Self::FIXED_LEN + 8 * self.runs.len() as u64
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
        usize_of(self.u64(what)?, what)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes `payload` through a reader that logs every byte range
    /// it is asked for.
    fn logged<T>(
        payload: &[u8],
        decode: impl FnOnce(&mut dyn FnMut(u64, &mut [u8]) -> Result<(), ArtError>) -> T,
    ) -> (T, Vec<std::ops::Range<u64>>) {
        let mut reads = Vec::new();
        let mut inner = payload_reader(payload);
        let out = decode(&mut |at, buf| {
            reads.push(at..at + buf.len() as u64);
            inner(at, buf)
        });
        (out, reads)
    }

    fn dataset(n: u64, m: u64, values: usize) -> Vec<u8> {
        let mut b = [n.to_le_bytes(), m.to_le_bytes()].concat();
        b.resize(b.len() + 8 * values, 0);
        b
    }

    /// A COLUMN payload: header, `n_rows` zero records, `pad` padding.
    fn column(reserved: u32, n_rows: u64, runs: &[u64], pad: &[u8]) -> Vec<u8> {
        let mut b = [3u32.to_le_bytes(), reserved.to_le_bytes()].concat();
        b.extend(n_rows.to_le_bytes());
        b.extend((runs.len() as u64).to_le_bytes());
        runs.iter().for_each(|r| b.extend(r.to_le_bytes()));
        b.resize(b.len() + 12 * n_rows as usize, 0);
        b.extend(pad);
        b
    }

    #[test]
    fn dataset_header_reads_only_the_header_and_checks_the_length() {
        let payload = dataset(3, 2, 3 * 2 + 3);
        let (head, reads) = logged(&payload, |r| DatasetHeader::read(payload.len() as u64, r));
        assert_eq!(head.unwrap(), DatasetHeader { n: 3, m: 2 });
        assert_eq!(reads, vec![0..16]);
        assert_eq!(DatasetHeader { n: 3, m: 2 }.labels_at(), 16 + 48);
        for bad in [
            dataset(3, 2, 8),        // one value short
            dataset(3, 2, 10),       // one value over
            dataset(u64::MAX, 2, 0), // n·m overflows
            dataset(1 << 61, 0, 0),  // 8·n overflows
            b"short".to_vec(),       // no header
        ] {
            let err = DatasetHeader::read(bad.len() as u64, payload_reader(&bad));
            assert!(matches!(err, Err(ArtError::Corrupt(_))), "{err:?}");
        }
    }

    #[test]
    fn column_header_reads_header_and_padding_only_and_enforces_the_rules() {
        // Two runs, odd n: 12·5 record bytes leave 4 bytes of padding.
        let payload = column(0, 5, &[2, 3], &[0; 4]);
        let (head, reads) = logged(&payload, |r| ColumnHeader::read(payload.len() as u64, r));
        let head = head.unwrap();
        let want = ColumnHeader {
            column: 3,
            n_rows: 5,
            runs: vec![2, 3],
        };
        assert_eq!(head, want);
        assert_eq!(head.records_at(), 40);
        assert_eq!(reads, vec![0..24, 24..40, 100..104]);

        let cases = [
            ("reserved word set", column(1, 5, &[2, 3], &[0; 4])),
            ("nonzero padding", column(0, 5, &[2, 3], &[0, 0, 7, 0])),
            ("missing padding", column(0, 5, &[2, 3], &[])),
            ("runs sum short", column(0, 5, &[2, 2], &[0; 4])),
            ("runs sum wraps", column(0, 5, &[u64::MAX, 6], &[0; 4])),
            ("run count overflows", {
                let mut b = column(0, 0, &[], &[]);
                b[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
                b
            }),
            ("row count overflows", {
                let mut b = column(0, 0, &[], &[]);
                b[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
                b
            }),
            ("no header", vec![0; 16]),
        ];
        for (what, bad) in cases {
            let err = ColumnHeader::read(bad.len() as u64, payload_reader(&bad));
            assert!(matches!(err, Err(ArtError::Corrupt(_))), "{what}: {err:?}");
        }
    }
}
