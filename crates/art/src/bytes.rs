//! Read-only 8-byte-aligned byte buffers: a real `mmap` on unix, an
//! owned aligned buffer everywhere else (and as an explicit fallback).

use std::fs::File;
use std::io::Read;
use std::path::Path;

use crate::ArtError;

/// A read-only view of a whole artifact file, aligned to 8 bytes.
///
/// On unix this is a private memory mapping, which reads the file
/// without copying it into the heap first. Elsewhere (or when mapping
/// fails) the file is read into an owned 8-byte-aligned buffer; callers
/// can't tell the difference.
///
/// **Mapped files must not be modified while mapped.** The verification
/// chain in [`ArtFile::open`](crate::ArtFile::open) runs against the
/// bytes at open time; a writer mutating the file afterwards bypasses
/// it (standard mmap TOCTOU caveat). The readers keep the mapping only
/// while they verify and decode: models and datasets decode into owned
/// memory, so once [`ArtFile`](crate::ArtFile) and its column sections
/// are dropped the file is never read again.
pub struct ArtBytes {
    repr: Repr,
}

enum Repr {
    #[cfg(unix)]
    Mapped {
        ptr: *const u8,
        len: usize,
        // The original mapping length handed back to munmap (len
        // rounds up to page granularity implicitly; munmap takes the
        // requested length).
        map_len: usize,
    },
    Owned {
        // Backing storage in u64 units to force 8-byte alignment; the
        // logical byte length may be shorter than 8 × capacity.
        buf: Vec<u64>,
        len: usize,
    },
}

// SAFETY: the mapping is private and read-only for its whole lifetime;
// a `&ArtBytes` only ever yields shared `&[u8]` views.
unsafe impl Send for ArtBytes {}
unsafe impl Sync for ArtBytes {}

#[cfg(unix)]
mod mmap_ffi {
    //! Minimal mmap bindings. `std` already links libc on unix
    //! targets, so declaring the two symbols we need avoids a libc
    //! crate dependency.
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

impl ArtBytes {
    /// Maps (unix) or reads `path` read-only.
    pub fn open(path: &Path) -> Result<Self, ArtError> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| crate::corrupt("file too large for this address space"))?;
        #[cfg(unix)]
        {
            if let Some(mapped) = Self::try_map(&file, len) {
                return Ok(mapped);
            }
        }
        Self::read_owned(&mut file, len)
    }

    #[cfg(unix)]
    fn try_map(file: &File, len: usize) -> Option<Self> {
        use std::os::unix::io::AsRawFd;
        // A zero-length mmap is an error by spec; the empty file is
        // handled (and rejected as truncated) by the owned path.
        if len == 0 {
            return None;
        }
        // SAFETY: mapping `len` bytes of an open fd privately and
        // read-only; the result is checked against MAP_FAILED before
        // use, and munmap'd with the same length on drop.
        let ptr = unsafe {
            mmap_ffi::mmap(
                std::ptr::null_mut(),
                len,
                mmap_ffi::PROT_READ,
                mmap_ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == mmap_ffi::MAP_FAILED {
            return None;
        }
        // mmap returns page-aligned addresses — far stricter than the
        // 8-byte alignment the format requires.
        debug_assert_eq!(ptr as usize % 8, 0);
        Some(Self {
            repr: Repr::Mapped {
                ptr: ptr as *const u8,
                len,
                map_len: len,
            },
        })
    }

    fn read_owned(file: &mut File, len: usize) -> Result<Self, ArtError> {
        let words = len.div_ceil(8);
        let mut buf = vec![0u64; words];
        // View the u64 backing store as bytes for the read; any bit
        // pattern is a valid u64, and the allocation is 8-aligned.
        let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) };
        file.read_exact(dst)?;
        Ok(Self {
            repr: Repr::Owned { buf, len },
        })
    }

    /// The file contents.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            #[cfg(unix)]
            // SAFETY: the mapping stays valid until drop and is never
            // written through.
            Repr::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Repr::Owned { buf, len } => {
                // SAFETY: `len <= buf.len() * 8` by construction.
                unsafe { std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len) }
            }
        }
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        match &self.repr {
            #[cfg(unix)]
            Repr::Mapped { len, .. } => *len,
            Repr::Owned { len, .. } => *len,
        }
    }

    /// Whether the file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Deref for ArtBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Drop for ArtBytes {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Repr::Mapped { ptr, map_len, .. } = self.repr {
            // SAFETY: `ptr`/`map_len` came from a successful mmap and
            // are unmapped exactly once.
            unsafe {
                mmap_ffi::munmap(ptr as *mut std::ffi::c_void, map_len);
            }
        }
    }
}
