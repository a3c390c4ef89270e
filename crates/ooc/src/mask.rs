//! The paged, file-backed membership bitmask.
//!
//! The active-row mask of an `L = 10⁷` pool is only ~1.2 MB, but the
//! out-of-core contract is that **no** per-row state is resident: the
//! mask lives in a scratch file beside the artifact (one bit per row,
//! LSB-first within each byte, so ascending bit order is ascending row
//! order), and the store touches it through a small write-back page
//! cache — a [`SlotTable`] over mask pages, so `is_set` and `clear` on
//! a resident page are an index and a bit test. Deactivation marks
//! pages dirty; eviction (least recently used first) and [`flush`]
//! persist them with positioned writes.
//!
//! The scratch file is removed on drop — it is live search state, not
//! an artifact.
//!
//! [`flush`]: PagedMask::flush

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::cache::SlotTable;
use crate::OocError;

/// Bytes per mask page: 4 KiB = 32 768 rows.
pub(crate) const MASK_PAGE_BYTES: usize = 4096;

struct MaskPage {
    data: Vec<u8>,
    dirty: bool,
}

/// A file-backed bitmask over `n_rows` rows with a bounded write-back
/// page cache. Starts all-ones (every row active); bits only ever
/// clear (deactivation is monotone).
pub(crate) struct PagedMask {
    file: File,
    path: PathBuf,
    n_rows: usize,
    n_bytes: usize,
    max_pages: usize,
    pages: SlotTable<MaskPage>,
}

impl PagedMask {
    /// Creates the scratch file at `path`, initialized to all rows
    /// active, caching at most `max_pages` pages (≥ 1 enforced).
    pub(crate) fn create(path: &Path, n_rows: usize, max_pages: usize) -> Result<Self, OocError> {
        let n_bytes = n_rows.div_ceil(8);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        // All-ones body, trailing bits beyond n_rows cleared.
        let chunk = [0xffu8; 64 * 1024];
        let mut remaining = n_bytes;
        while remaining > 0 {
            let take = remaining.min(chunk.len());
            file.write_all(&chunk[..take])?;
            remaining -= take;
        }
        if !n_rows.is_multiple_of(8) && n_bytes > 0 {
            let last = 0xffu8 >> (8 - (n_rows % 8) as u32);
            file.write_at(&[last], (n_bytes - 1) as u64)?;
        }
        file.flush()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            n_rows,
            n_bytes,
            max_pages: max_pages.max(1),
            pages: SlotTable::new(n_bytes.div_ceil(MASK_PAGE_BYTES)),
        })
    }

    /// Number of mask pages.
    pub(crate) fn n_pages(&self) -> usize {
        self.n_bytes.div_ceil(MASK_PAGE_BYTES)
    }

    fn write_back(file: &File, page: usize, data: &[u8]) -> Result<(), OocError> {
        file.write_all_at(data, (page * MASK_PAGE_BYTES) as u64)?;
        Ok(())
    }

    /// The slot of mask page `page`, read in on a miss.
    fn touch(&mut self, page: usize) -> Result<usize, OocError> {
        match self.pages.touch(page) {
            Some(slot) => Ok(slot),
            None => self.load(page),
        }
    }

    /// Reads `page` in as the most recently used page, first evicting
    /// (and writing back, if dirty) the least recently used one when
    /// the cache is full.
    fn load(&mut self, page: usize) -> Result<usize, OocError> {
        if self.pages.len() >= self.max_pages {
            let (victim, gone) = self.pages.pop_lru().expect("a non-zero page limit");
            if gone.dirty {
                Self::write_back(&self.file, victim, &gone.data)?;
            }
        }
        let start = page * MASK_PAGE_BYTES;
        let mut data = vec![0u8; MASK_PAGE_BYTES.min(self.n_bytes - start)];
        self.file.read_exact_at(&mut data, start as u64)?;
        Ok(self.pages.insert(page, MaskPage { data, dirty: false }))
    }

    /// `true` when `row`'s bit is set.
    pub(crate) fn is_set(&mut self, row: u32) -> Result<bool, OocError> {
        debug_assert!((row as usize) < self.n_rows);
        let byte = row as usize / 8;
        let slot = self.touch(byte / MASK_PAGE_BYTES)?;
        Ok(self.pages[slot].data[byte % MASK_PAGE_BYTES] & (1 << (row % 8)) != 0)
    }

    /// Clears `row`'s bit; returns whether it was set.
    pub(crate) fn clear(&mut self, row: u32) -> Result<bool, OocError> {
        debug_assert!((row as usize) < self.n_rows);
        let byte = row as usize / 8;
        let slot = self.touch(byte / MASK_PAGE_BYTES)?;
        let page = &mut self.pages[slot];
        let bit = 1u8 << (row % 8);
        let was = page.data[byte % MASK_PAGE_BYTES] & bit != 0;
        if was {
            page.data[byte % MASK_PAGE_BYTES] &= !bit;
            page.dirty = true;
        }
        Ok(was)
    }

    /// A copy of one mask page's bytes (bit `b` of byte `i` is row
    /// `page·8·MASK_PAGE_BYTES + 8·i + b`). A copy, not a borrow, so
    /// the caller can interleave other store reads while walking it.
    pub(crate) fn page_bits(&mut self, page: usize) -> Result<Vec<u8>, OocError> {
        let slot = self.touch(page)?;
        Ok(self.pages[slot].data.clone())
    }

    /// Writes every dirty cached page back to the scratch file. The
    /// store itself never needs this (the mask is scratch state,
    /// removed on drop); the persistence tests do.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn flush(&mut self) -> Result<(), OocError> {
        for (id, page) in self.pages.iter_mut() {
            if page.dirty {
                Self::write_back(&self.file, id, &page.data)?;
                page.dirty = false;
            }
        }
        Ok(())
    }
}

impl Drop for PagedMask {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reds-ooc-mask-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("pool.mask")
    }

    #[test]
    fn starts_all_active_and_clears_monotonically() {
        let path = scratch("basic");
        let mut m = PagedMask::create(&path, 77, 2).unwrap();
        for row in 0..77 {
            assert!(m.is_set(row).unwrap(), "row {row} starts active");
        }
        assert!(m.clear(13).unwrap());
        assert!(!m.clear(13).unwrap(), "second clear reports already-clear");
        assert!(!m.is_set(13).unwrap());
        assert!(m.is_set(12).unwrap());
    }

    #[test]
    fn trailing_bits_beyond_n_rows_are_zero() {
        let path = scratch("trailing");
        let m = PagedMask::create(&path, 11, 1).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 2);
        assert_eq!(bytes[0], 0xff);
        assert_eq!(bytes[1], 0b0000_0111);
        drop(m);
        assert!(!path.exists(), "scratch mask not removed on drop");
    }

    #[test]
    fn resident_pages_never_exceed_max_pages() {
        let path = scratch("resident");
        let rows = MASK_PAGE_BYTES * 8 * 6;
        let mut m = PagedMask::create(&path, rows, 3).unwrap();
        for i in 0..100_000usize {
            let row = ((i * 40_503) % rows) as u32;
            if i % 3 == 0 {
                m.clear(row).unwrap();
            } else {
                m.is_set(row).unwrap();
            }
            assert!(
                m.pages.len() <= 3,
                "touch {i}: {} pages resident",
                m.pages.len()
            );
        }
    }

    #[test]
    fn eviction_writes_dirty_pages_back() {
        let path = scratch("writeback");
        // 3 pages of rows, cache of 1 page: every touch of another
        // page evicts (and persists) the previous one.
        let rows = MASK_PAGE_BYTES * 8 * 3;
        let mut m = PagedMask::create(&path, rows, 1).unwrap();
        let probes: Vec<u32> = vec![
            5,
            (MASK_PAGE_BYTES * 8 + 9) as u32,
            (2 * MASK_PAGE_BYTES * 8 + 13) as u32,
        ];
        for &row in &probes {
            assert!(m.clear(row).unwrap());
        }
        for &row in &probes {
            assert!(!m.is_set(row).unwrap(), "row {row} lost across eviction");
            assert!(m.is_set(row + 1).unwrap());
        }
        m.flush().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for &row in &probes {
            assert_eq!(
                bytes[row as usize / 8] & (1 << (row % 8)),
                0,
                "row {row} not persisted"
            );
        }
    }

    proptest! {
        /// The paged, evicting, write-back mask agrees with a plain
        /// in-memory `Vec<bool>` across arbitrary clear/query
        /// sequences, row counts, and cache sizes (including a 1-page
        /// cache, which forces an eviction on every page switch).
        #[test]
        fn matches_in_memory_mask(
            n_rows in 1usize..200_000,
            max_pages in 1usize..4,
            ops in prop::collection::vec((0u32..u32::MAX, prop::bool::ANY), 1..300),
            case in 0u64..u64::MAX,
        ) {
            let dir = std::env::temp_dir()
                .join(format!("reds-ooc-maskprop-{}-{case}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("m.mask");
            let mut paged = PagedMask::create(&path, n_rows, max_pages).unwrap();
            let mut reference = vec![true; n_rows];
            for &(raw, is_clear) in &ops {
                let row = raw % n_rows as u32;
                if is_clear {
                    let was = paged.clear(row).unwrap();
                    prop_assert_eq!(was, reference[row as usize]);
                    reference[row as usize] = false;
                } else {
                    prop_assert_eq!(paged.is_set(row).unwrap(), reference[row as usize]);
                }
            }
            // Full sweep: every row agrees at the end.
            for row in 0..n_rows as u32 {
                prop_assert_eq!(paged.is_set(row).unwrap(), reference[row as usize]);
            }
            // And the persisted file agrees bit for bit after a flush.
            paged.flush().unwrap();
            let bytes = std::fs::read(&path).unwrap();
            for row in 0..n_rows {
                let bit = bytes[row / 8] & (1 << (row % 8)) != 0;
                prop_assert_eq!(bit, reference[row]);
            }
            drop(paged);
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// The mask cache is exact LRU over its pages with dirty
        /// write-back. Against a reference recency list capped at
        /// `max_pages`, the resident pages agree in recency order after
        /// every query or clear, and every page that is not resident
        /// reads back from the file exactly as the reference mask — so
        /// each evicted page that a clear dirtied was written back.
        #[test]
        fn evicts_in_lru_order_and_writes_dirty_pages_back(
            n_rows in 1usize..5 * 8 * MASK_PAGE_BYTES,
            max_pages in 1usize..4,
            ops in prop::collection::vec((0u32..u32::MAX, prop::bool::ANY), 1..200),
            case in 0u64..u64::MAX,
        ) {
            let dir = std::env::temp_dir()
                .join(format!("reds-ooc-masklru-{}-{case}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("m.mask");
            let mut paged = PagedMask::create(&path, n_rows, max_pages).unwrap();
            let mut reference = std::fs::read(&path).unwrap();
            let mut model: Vec<usize> = Vec::new();
            for &(raw, is_clear) in &ops {
                let row = (raw % n_rows as u32) as usize;
                let bit = 1u8 << (row % 8);
                let was = reference[row / 8] & bit != 0;
                if is_clear {
                    prop_assert_eq!(paged.clear(row as u32).unwrap(), was);
                    reference[row / 8] &= !bit;
                } else {
                    prop_assert_eq!(paged.is_set(row as u32).unwrap(), was);
                }
                let page = row / 8 / MASK_PAGE_BYTES;
                model.retain(|&p| p != page);
                model.push(page);
                if model.len() > max_pages {
                    model.remove(0);
                }
                prop_assert_eq!(paged.pages.by_recency(), model.clone());
                let file = std::fs::read(&path).unwrap();
                for (p, (on_disk, want)) in file
                    .chunks(MASK_PAGE_BYTES)
                    .zip(reference.chunks(MASK_PAGE_BYTES))
                    .enumerate()
                {
                    if !model.contains(&p) {
                        prop_assert!(on_disk == want, "evicted page {} not written back", p);
                    }
                }
            }
            paged.flush().unwrap();
            prop_assert!(std::fs::read(&path).unwrap() == reference);
            drop(paged);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
