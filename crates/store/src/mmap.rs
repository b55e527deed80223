//! The byte source behind a lazily-decoded store: a read-only memory map
//! when the platform and build allow it, a plain read-into-buffer
//! otherwise.
//!
//! [`StoreBytes`] is the only place in the workspace that touches `unsafe`
//! (the two raw `mmap`/`munmap` calls and the slice view over the mapping),
//! and it is double-gated:
//!
//! * the `mmap` cargo feature (on by default) — CI builds and tests the
//!   whole workspace with it disabled so the portable fallback can't rot;
//! * `cfg(unix)` — non-Unix targets always use the fallback.
//!
//! Safety model for the mapping itself: store files are written atomically
//! (temp file + rename, see [`crate::StoreBuilder::write_to`]), so a
//! blessed writer never truncates or rewrites a file in place — the inode a
//! reader has mapped stays intact for as long as the mapping lives, even
//! across a concurrent replace of the same *path*. An out-of-band truncate
//! by a hostile process can still fault a mapped read (the classic mmap
//! caveat); the fallback path is immune, which is exactly why it must keep
//! working.

use std::io;
use std::ops::Deref;
use std::path::Path;

/// An immutable byte image of a store file: memory-mapped when possible,
/// owned otherwise. Dereferences to `&[u8]` either way.
#[derive(Debug)]
pub struct StoreBytes {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    Owned(Vec<u8>),
    #[cfg(all(unix, feature = "mmap"))]
    Mapped(sys::Mapping),
}

impl StoreBytes {
    /// Opens `path`, preferring a read-only memory map. Falls back to a
    /// buffered read when mapping is unavailable (feature off, non-Unix,
    /// empty file, or the map call itself failing).
    pub fn open(path: &Path) -> io::Result<StoreBytes> {
        #[cfg(all(unix, feature = "mmap"))]
        {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if let Ok(len) = usize::try_from(len) {
                if len > 0 {
                    if let Some(mapping) = sys::Mapping::map(&file, len) {
                        return Ok(StoreBytes {
                            inner: Inner::Mapped(mapping),
                        });
                    }
                }
            }
            // Zero-length or unmappable: fall through to the plain read.
        }
        Self::read(path)
    }

    /// Opens `path` by reading it fully into an owned buffer — never maps.
    pub fn read(path: &Path) -> io::Result<StoreBytes> {
        Ok(StoreBytes {
            inner: Inner::Owned(std::fs::read(path)?),
        })
    }

    /// Wraps an in-memory image (tests, callers that already hold bytes).
    pub fn from_vec(bytes: Vec<u8>) -> StoreBytes {
        StoreBytes {
            inner: Inner::Owned(bytes),
        }
    }

    /// Whether this image is a live memory map (false ⇒ owned buffer).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            Inner::Owned(_) => false,
            #[cfg(all(unix, feature = "mmap"))]
            Inner::Mapped(_) => true,
        }
    }

    /// The raw file image.
    pub fn as_slice(&self) -> &[u8] {
        match &self.inner {
            Inner::Owned(v) => v,
            #[cfg(all(unix, feature = "mmap"))]
            Inner::Mapped(m) => m.as_slice(),
        }
    }
}

impl Deref for StoreBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(all(unix, feature = "mmap"))]
mod sys {
    //! Raw `mmap(2)`/`munmap(2)` via the libc the Rust runtime already
    //! links — no new dependency. Read-only, `MAP_PRIVATE`, whole file.

    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A live read-only mapping. Unmapped on drop.
    #[derive(Debug)]
    pub(super) struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is read-only and never remapped after
    // construction; sharing the base pointer across threads is no
    // different from sharing a `&[u8]`.
    #[allow(unsafe_code)]
    unsafe impl Send for Mapping {}
    // SAFETY: all access goes through `&self` to immutable bytes (the
    // region is mapped PROT_READ and never remapped), so concurrent
    // readers can never observe a write.
    #[allow(unsafe_code)]
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps `len` bytes of `file` read-only. `len` must be non-zero
        /// (a zero-length mmap is EINVAL). Returns `None` on failure so
        /// the caller can fall back to a plain read.
        #[allow(unsafe_code)]
        pub(super) fn map(file: &File, len: usize) -> Option<Mapping> {
            // SAFETY: fd is a valid open file for the duration of the
            // call; addr=null lets the kernel choose placement; the
            // result is checked against MAP_FAILED before use.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as isize == -1 {
                return None;
            }
            Some(Mapping { ptr, len })
        }

        #[allow(unsafe_code)]
        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until `Drop` runs; the returned borrow cannot
            // outlive `self`.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        #[allow(unsafe_code)]
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are the exact values the successful
            // mmap returned; the mapping is unmapped exactly once.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpath_reference::ScratchDir;

    /// `bytes` written to a file in a fresh scratch directory (whose drop
    /// removes it).
    fn tmp_file(tag: &str, bytes: &[u8]) -> (ScratchDir, std::path::PathBuf) {
        let dir = ScratchDir::new(tag);
        let path = dir.path().join("image.bin");
        std::fs::write(&path, bytes).unwrap();
        (dir, path)
    }

    #[test]
    fn open_sees_the_file_bytes() {
        let (_dir, path) = tmp_file("mmap-basic", b"hello store");
        let bytes = StoreBytes::open(&path).unwrap();
        assert_eq!(&*bytes, b"hello store");
    }

    #[test]
    fn read_never_maps() {
        let (_dir, path) = tmp_file("mmap-read", b"plain");
        let bytes = StoreBytes::read(&path).unwrap();
        assert!(!bytes.is_mapped());
        assert_eq!(&*bytes, b"plain");
    }

    #[test]
    fn empty_files_open_via_fallback() {
        let (_dir, path) = tmp_file("mmap-empty", b"");
        let bytes = StoreBytes::open(&path).unwrap();
        assert!(!bytes.is_mapped());
        assert!(bytes.is_empty());
    }

    #[cfg(all(unix, feature = "mmap"))]
    #[test]
    fn nonempty_files_map_on_unix() {
        let (_dir, path) = tmp_file("mmap-mapped", &[7u8; 4096]);
        let bytes = StoreBytes::open(&path).unwrap();
        assert!(bytes.is_mapped());
        assert_eq!(bytes.len(), 4096);
        // The mapping pins the inode: removing the path must not disturb
        // the live view (this is the property the concurrent
        // open-vs-replace test at the workspace root depends on).
        std::fs::remove_file(&path).unwrap();
        assert!(bytes.iter().all(|&b| b == 7));
    }
}
