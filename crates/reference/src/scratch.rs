//! The workspace's one scratch-directory helper, for every test that
//! writes files.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh directory under the system temp dir, removed on drop.
///
/// The name carries the PID, a process-wide counter and the caller's tag,
/// so no two calls — from parallel tests of one binary (which share a PID)
/// or from concurrently running binaries — can ever create, reuse or
/// delete each other's directory.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates the directory. `create_dir` (not `create_dir_all`) is the
    /// uniqueness check: a leftover with the same name is skipped, never
    /// reused.
    pub fn new(tag: &str) -> ScratchDir {
        loop {
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let name = format!("flexpath-test-{tag}-{}-{seq}", std::process::id());
            let path = std::env::temp_dir().join(name);
            match std::fs::create_dir(&path) {
                Ok(()) => return ScratchDir { path },
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => panic!("cannot create scratch directory {}: {e}", path.display()),
            }
        }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
