//! Streaming `.redsart` verification and positioned reads.
//!
//! The in-memory reader ([`ArtFile`](crate::ArtFile)) is the right tool
//! when the whole artifact is welcome in memory. The out-of-core search
//! path is the opposite case: its entire point is that resident memory
//! stays bounded by a page-cache budget, so it can neither copy nor map
//! the file.
//!
//! [`ArtScan`] therefore runs the **identical** verification chain as
//! `ArtFile::from_bytes` — the one in `layout.rs`: header, recorded
//! length, TOC geometry, whole-file [`Checksum`](crate::Checksum) with
//! the digest field zeroed, per-section bounds/alignment/checksums —
//! feeding it one sequential pass through a bounded buffer, and then
//! serves positioned reads (`pread`) against the verified byte ranges.
//! Any single-byte corruption is rejected up front for the same
//! bijection reason as the in-memory path, which it also follows in
//! reading the padding between sections only through the whole-file
//! checksum. The reads after verification go to the file again, so a
//! pool artifact must not change while a run uses it.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::layout::{verify, Cur, HEADER_LEN, VERIFY_BLOCK};
use crate::{corrupt, ArtError};

/// One verified table-of-contents entry, as both readers list it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanSection {
    /// Section kind code (`SECTION_*`).
    pub kind: u32,
    /// Absolute file offset of the payload's first byte.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
}

/// A verified `.redsart` file served by positioned reads (see the
/// module docs for why out-of-core readers must not hold the file in
/// memory).
pub struct ArtScan {
    file: File,
    file_len: u64,
    sections: Vec<ScanSection>,
}

impl ArtScan {
    /// Opens and verifies `path` with bounded memory: the same checks,
    /// in the same order, as [`ArtFile::from_bytes`](crate::ArtFile) —
    /// just streamed instead of read whole, every byte once.
    pub fn open(path: &Path) -> Result<Self, ArtError> {
        let file = File::open(path)?;
        let actual_len = file.metadata()?.len();
        let sections = verify(
            actual_len,
            |at, buf| Ok(file.read_exact_at(buf, at)?),
            |visit| {
                let mut buf = vec![0u8; VERIFY_BLOCK];
                let mut at = HEADER_LEN as u64;
                while at < actual_len {
                    let block = &mut buf[..(actual_len - at).min(VERIFY_BLOCK as u64) as usize];
                    file.read_exact_at(block, at)
                        .map_err(|_| corrupt("file shrank while being verified"))?;
                    visit(block);
                    at += block.len() as u64;
                }
                Ok(())
            },
        )?;
        Ok(Self {
            file,
            file_len: actual_len,
            sections,
        })
    }

    /// The verified table of contents.
    pub fn sections(&self) -> &[ScanSection] {
        &self.sections
    }

    /// Reads exactly `buf.len()` bytes at absolute file offset
    /// `offset` (a `pread` — no shared cursor, safe under interleaved
    /// readers). The range must lie inside the verified file.
    pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<(), ArtError> {
        offset
            .checked_add(buf.len() as u64)
            .filter(|&e| e <= self.file_len)
            .ok_or_else(|| corrupt("positioned read beyond the verified file"))?;
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }
}

/// Default records-per-page for writers that emit page indexes: small
/// enough that a 64 MiB cache holds thousands of pages, large enough
/// (48 KiB of records) to amortize the `pread` per fetch.
pub const DEFAULT_PAGE_ROWS: u32 = 4096;

/// A decoded `SECTION_PAGE_INDEX` payload: one column's per-page
/// min/max key fences at the page size the writer chose.
///
/// Layout (little-endian): `column u32`, `page_rows u32`,
/// `n_pages u64`, then `n_pages × (min_key u64, max_key u64)`.
/// `docs/artifact-format.md` is the normative description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageIndex {
    /// Column the fences describe.
    pub column: u32,
    /// Records per page the fences were computed at.
    pub page_rows: u32,
    /// `(min_key, max_key)` of each page, in page order.
    pub fences: Vec<(u64, u64)>,
}

impl PageIndex {
    /// Parses and validates one page-index payload: fence keys must be
    /// internally ordered (`min ≤ max`) and monotone across pages
    /// (`max[p] ≤ min[p+1]` — the column is sorted; equality marks a
    /// tie run crossing the page boundary).
    pub fn parse(payload: &[u8]) -> Result<Self, ArtError> {
        let mut cur = Cur::new(payload);
        let column = cur.u32("page index column")?;
        let page_rows = cur.u32("page index page_rows")?;
        if page_rows == 0 {
            return Err(corrupt("page index declares zero rows per page"));
        }
        let n_pages = cur.count("page index page count")?;
        let mut fences = Vec::with_capacity(n_pages.min(payload.len() / 16));
        let mut prev_max: Option<u64> = None;
        for p in 0..n_pages {
            let min = cur.u64("page fence min key")?;
            let max = cur.u64("page fence max key")?;
            if min > max {
                return Err(corrupt(format!("page {p} fence has min > max")));
            }
            if let Some(pm) = prev_max {
                if pm > min {
                    return Err(corrupt(format!(
                        "page {p} fence is not monotone with its predecessor"
                    )));
                }
            }
            prev_max = Some(max);
            fences.push((min, max));
        }
        cur.finish("page index")?;
        Ok(Self {
            column,
            page_rows,
            fences,
        })
    }

    /// `true` when the tie run ending page `p` continues into page
    /// `p + 1` (the pages share a key at the boundary).
    pub fn tie_spans_boundary(&self, p: usize) -> bool {
        p + 1 < self.fences.len() && self.fences[p].1 == self.fences[p + 1].0
    }

    /// Encodes the payload this parser reads (the writer-side dual).
    pub fn encode(column: u32, page_rows: u32, fences: &[(u64, u64)]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + 16 * fences.len());
        buf.extend_from_slice(&column.to_le_bytes());
        buf.extend_from_slice(&page_rows.to_le_bytes());
        buf.extend_from_slice(&(fences.len() as u64).to_le_bytes());
        for &(min, max) in fences {
            buf.extend_from_slice(&min.to_le_bytes());
            buf.extend_from_slice(&max.to_le_bytes());
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArtWriter, TOC_ENTRY_LEN};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("reds-art-scan-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t.redsart")
    }

    fn tiny_artifact(path: &Path) {
        let mut w = ArtWriter::create(path).unwrap();
        w.section(42, b"payload-a").unwrap();
        w.section(
            crate::SECTION_PAGE_INDEX,
            &PageIndex::encode(0, 2, &[(1, 5), (5, 9)]),
        )
        .unwrap();
        w.finish().unwrap();
    }

    #[test]
    fn scan_agrees_with_the_in_memory_reader() {
        let path = scratch("agree");
        tiny_artifact(&path);
        let scan = ArtScan::open(&path).unwrap();
        let file = crate::ArtFile::open(&path).unwrap();
        assert_eq!(scan.sections(), file.sections());
        // Positioned reads return the exact payload bytes.
        let sec = scan.sections()[0];
        let mut buf = vec![0u8; sec.len as usize];
        scan.read_exact_at(&mut buf, sec.offset).unwrap();
        assert_eq!(&buf, b"payload-a");
    }

    #[test]
    fn every_byte_flip_is_rejected() {
        let path = scratch("flip");
        tiny_artifact(&path);
        let pristine = std::fs::read(&path).unwrap();
        for i in 0..pristine.len() {
            let mut bad = pristine.clone();
            bad[i] ^= 0xff;
            std::fs::write(&path, &bad).unwrap();
            assert!(ArtScan::open(&path).is_err(), "byte {i} flip accepted");
        }
        std::fs::write(&path, &pristine).unwrap();
        assert!(ArtScan::open(&path).is_ok());
    }

    /// Recomputes the whole-file checksum after an edit, so that the
    /// checks after it are reached.
    fn reseal(bytes: &mut [u8]) {
        bytes[32..40].fill(0);
        let mut sum = crate::Checksum::new();
        sum.update(bytes);
        bytes[32..40].copy_from_slice(&sum.finish().to_le_bytes());
    }

    /// Both readers' verdicts on `bytes`: the sections, or the error.
    fn verdicts(path: &Path, bytes: &[u8]) -> [Result<Vec<ScanSection>, String>; 2] {
        std::fs::write(path, bytes).unwrap();
        [
            ArtScan::open(path).map(|s| s.sections().to_vec()),
            crate::ArtFile::from_bytes(bytes.to_vec()).map(|f| f.sections().to_vec()),
        ]
        .map(|r| r.map_err(|e| e.to_string()))
    }

    #[test]
    fn sections_spanning_many_blocks_verify_in_one_pass() {
        let path = scratch("blocks");
        let big: Vec<u8> = (0..3 * VERIFY_BLOCK + 1234)
            .map(|i| (i * 31 + 7) as u8)
            .collect();
        let mut w = ArtWriter::create(&path).unwrap();
        w.section(7, b"head").unwrap();
        w.section(42, &big).unwrap();
        w.section(9, b"tail").unwrap();
        w.finish().unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let [scan, file] = verdicts(&path, &pristine);
        let sections = scan.unwrap();
        assert_eq!(sections.len(), 3);
        assert_eq!(file.unwrap(), sections);
        // A flip in the big section's third block, under a resealed
        // file checksum, fails that section's own checksum.
        let mut bad = pristine;
        bad[sections[1].offset as usize + 2 * VERIFY_BLOCK + 5] ^= 1;
        reseal(&mut bad);
        for verdict in verdicts(&path, &bad) {
            assert_eq!(
                verdict.unwrap_err(),
                "corrupt artifact: section 1 (kind 42) checksum mismatch"
            );
        }
    }

    #[test]
    fn both_readers_report_the_first_failing_check() {
        let path = scratch("order");
        tiny_artifact(&path);
        let pristine = std::fs::read(&path).unwrap();
        let toc = u64::from_le_bytes(pristine[16..24].try_into().unwrap()) as usize;
        let entry = |i: usize| toc + TOC_ENTRY_LEN * i;
        let mut out_of_bounds = pristine.clone();
        out_of_bounds[entry(1) + 8..entry(1) + 16].copy_from_slice(&4u64.to_le_bytes());
        // The whole-file checksum comes before any entry ...
        let mut payload_flip = pristine.clone();
        payload_flip[HEADER_LEN] ^= 1; // the first section's first byte
        let mut cases = vec![
            (payload_flip, Err("file checksum mismatch")),
            (out_of_bounds.clone(), Err("file checksum mismatch")),
        ];
        // ... an entry's bounds after the checksums of those before it
        // ...
        let mut bad_sum_first = out_of_bounds.clone();
        reseal(&mut out_of_bounds);
        cases.push((out_of_bounds, Err("section 1 is out of bounds")));
        bad_sum_first[entry(0) + 24] ^= 1; // entry 0's stored checksum
        reseal(&mut bad_sum_first);
        cases.push((bad_sum_first, Err("section 0 (kind 42) checksum mismatch")));
        // ... and a repeated entry is summed, and listed, twice.
        let mut repeated = pristine.clone();
        repeated.copy_within(entry(0)..entry(1), entry(1));
        reseal(&mut repeated);
        cases.push((repeated, Ok(2)));
        for (i, (bytes, want)) in cases.into_iter().enumerate() {
            let [scan, file] = verdicts(&path, &bytes);
            assert_eq!(scan, file, "case {i}");
            match (scan, want) {
                (Err(got), Err(want)) => assert!(got.contains(want), "case {i}: {got}"),
                (Ok(sections), Ok(n)) => {
                    assert_eq!(sections.len(), n, "case {i}");
                    assert_eq!(sections[0], sections[1], "case {i}");
                }
                (got, want) => panic!("case {i}: {got:?}, expected {want:?}"),
            }
        }
    }

    #[test]
    fn truncation_and_extension_are_rejected() {
        let path = scratch("trunc");
        tiny_artifact(&path);
        let pristine = std::fs::read(&path).unwrap();
        std::fs::write(&path, &pristine[..pristine.len() - 1]).unwrap();
        assert!(ArtScan::open(&path).is_err());
        let mut longer = pristine.clone();
        longer.push(0);
        std::fs::write(&path, &longer).unwrap();
        assert!(ArtScan::open(&path).is_err());
    }

    #[test]
    fn out_of_bounds_reads_are_refused() {
        let path = scratch("oob");
        tiny_artifact(&path);
        let scan = ArtScan::open(&path).unwrap();
        let mut buf = [0u8; 16];
        let err = scan.read_exact_at(&mut buf, u64::MAX - 4).unwrap_err();
        assert!(matches!(err, ArtError::Corrupt(_)));
    }

    #[test]
    fn page_index_round_trips_and_validates() {
        let payload = PageIndex::encode(3, 4, &[(1, 2), (2, 7), (9, 9)]);
        let idx = PageIndex::parse(&payload).unwrap();
        assert_eq!(idx.column, 3);
        assert_eq!(idx.page_rows, 4);
        assert_eq!(idx.fences, vec![(1, 2), (2, 7), (9, 9)]);
        assert!(idx.tie_spans_boundary(0));
        assert!(!idx.tie_spans_boundary(1));
        assert!(!idx.tie_spans_boundary(2));
        // min > max inside a page.
        assert!(PageIndex::parse(&PageIndex::encode(0, 1, &[(5, 1)])).is_err());
        // Non-monotone across pages.
        assert!(PageIndex::parse(&PageIndex::encode(0, 1, &[(1, 9), (2, 3)])).is_err());
        // Zero page_rows.
        assert!(PageIndex::parse(&PageIndex::encode(0, 0, &[])).is_err());
    }
}
