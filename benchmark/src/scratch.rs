//! Scratch directories inside the checkout: unique per call, removed on
//! drop. No path is keyed by PID alone — two calls in one process (or two
//! processes that recycle a PID) can never share or delete each other's
//! directory, the flake ROADMAP item 0 records for the test suite.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static SEQ: AtomicU64 = AtomicU64::new(0);

/// The benchmark's output directory, `benchmark/out/` (git-ignored). It is
/// the only place the benchmark writes.
pub fn out_dir() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let base = if manifest.is_dir() {
        manifest.to_path_buf()
    } else {
        // The binary outlived the checkout it was built in: fall back to
        // the documented invocation directory (the repository root).
        PathBuf::from("benchmark")
    };
    base.join("out")
}

#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh directory `benchmark/out/scratch-<tag>-…`.
    /// `create_dir` (not `create_dir_all`) is the uniqueness check: a name
    /// that already exists is skipped, never reused.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let parent = out_dir();
        std::fs::create_dir_all(&parent)?;
        loop {
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let name = format!("scratch-{tag}-{}-{seq}", std::process::id());
            let path = parent.join(name);
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(ScratchDir { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_call_gets_its_own_directory_and_drop_removes_it() {
        let dirs: Vec<ScratchDir> = (0..8)
            .map(|_| ScratchDir::new("selftest").unwrap())
            .collect();
        let mut paths: Vec<PathBuf> = dirs.iter().map(|d| d.path().to_path_buf()).collect();
        assert!(paths.iter().all(|p| p.is_dir()));
        paths.sort();
        paths.dedup();
        assert_eq!(paths.len(), 8, "paths must be distinct");
        // Dropping one leaves the others alone.
        let mut dirs = dirs;
        let gone = dirs.pop().unwrap();
        let gone_path = gone.path().to_path_buf();
        std::fs::write(gone_path.join("file"), b"x").unwrap();
        drop(gone);
        assert!(!gone_path.exists());
        assert!(dirs.iter().all(|d| d.path().is_dir()));
    }

    #[test]
    fn a_leftover_directory_with_the_next_name_is_skipped_not_reused() {
        // Simulate a crashed earlier process that recycled this PID: its
        // directory carries the name the next call would pick.
        let first = ScratchDir::new("leftover").unwrap();
        let next_seq = SEQ.load(Ordering::Relaxed);
        let squatter = out_dir().join(format!(
            "scratch-leftover-{}-{next_seq}",
            std::process::id()
        ));
        let squatted = std::fs::create_dir(&squatter).is_ok();
        let second = ScratchDir::new("leftover").unwrap();
        assert_ne!(second.path(), squatter.as_path());
        assert_ne!(second.path(), first.path());
        if squatted {
            assert!(
                squatter.is_dir(),
                "a directory we did not create is never deleted"
            );
            std::fs::remove_dir(&squatter).unwrap();
        }
    }
}
