//! A directory of named store files — the multi-document layer.
//!
//! One [`Catalog`] owns one directory; each document lives in its own
//! `<name>.fxs` file, so documents can be added, replaced, and removed
//! independently and a crashed writer never damages its neighbours (the
//! per-file temp-and-rename in [`StoreBuilder::write_to`] keeps each file
//! individually consistent).

use crate::error::StoreError;
use crate::format::FILE_EXTENSION;
use crate::lazy::LazyStore;
use crate::mmap::StoreBytes;
use crate::store::{StoreBuilder, StoreMeta};
use std::path::{Path, PathBuf};

/// A named document visible in a catalog directory.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The meta fields read from the file (name, node/term counts).
    pub meta: StoreMeta,
    /// The backing file.
    pub path: PathBuf,
    /// File size in bytes.
    pub file_bytes: u64,
}

/// A `.fxs` file in the catalog directory that could not be listed: it is
/// quarantined from the healthy listing with the *typed* reason, instead
/// of silently disappearing or failing the whole listing.
#[derive(Debug)]
pub struct QuarantinedEntry {
    /// The offending file.
    pub path: PathBuf,
    /// Why its header/meta could not be read (bad magic, truncation,
    /// checksum mismatch, I/O, …).
    pub error: StoreError,
}

/// The result of [`Catalog::list_report`]: healthy entries plus the files
/// that were quarantined.
#[derive(Debug, Default)]
pub struct CatalogListing {
    /// Documents whose header and meta section verified, sorted by name.
    pub entries: Vec<CatalogEntry>,
    /// `.fxs` files that failed verification, sorted by path.
    pub quarantined: Vec<QuarantinedEntry>,
}

/// Manages multiple named documents in one store directory.
#[derive(Debug, Clone)]
pub struct Catalog {
    dir: PathBuf,
}

impl Catalog {
    /// Opens (creating if needed) the catalog directory at `dir`.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        Ok(Catalog {
            dir: dir.to_path_buf(),
        })
    }

    /// The catalog's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path a document named `name` is stored at. Names are
    /// restricted to `[A-Za-z0-9._-]`, must not start with `.`, and must
    /// be non-empty — exactly the set that is safe to splice into a file
    /// name on every platform.
    pub fn path_for(&self, name: &str) -> Result<PathBuf, StoreError> {
        let valid = !name.is_empty()
            && !name.starts_with('.')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
        if !valid {
            return Err(StoreError::InvalidName {
                name: name.to_string(),
            });
        }
        Ok(self.dir.join(format!("{name}.{FILE_EXTENSION}")))
    }

    /// Writes `builder`'s document into the catalog under its meta name,
    /// replacing any previous version. Returns the file path.
    pub fn save(&self, builder: &StoreBuilder) -> Result<PathBuf, StoreError> {
        let path = self.path_for(&builder.meta().name)?;
        builder.write_to(&path)?;
        Ok(path)
    }

    /// Whether a document named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.path_for(name).map(|p| p.is_file()).unwrap_or(false)
    }

    /// Opens the document named `name` (memory-mapped when possible,
    /// sections decoded on first touch).
    pub fn open_lazy(&self, name: &str) -> Result<LazyStore, StoreError> {
        let path = self.path_for(name)?;
        if !path.is_file() {
            return Err(StoreError::DocumentNotFound {
                name: name.to_string(),
            });
        }
        LazyStore::open(&path)
    }

    /// Removes the document named `name`.
    pub fn remove(&self, name: &str) -> Result<(), StoreError> {
        let path = self.path_for(name)?;
        if !path.is_file() {
            return Err(StoreError::DocumentNotFound {
                name: name.to_string(),
            });
        }
        std::fs::remove_file(path)?;
        Ok(())
    }

    /// Lists the catalog's documents, sorted by name. Each file is mapped
    /// and only its header and meta section are read (and CRC-verified) —
    /// payloads are neither read nor decoded, so listing stays cheap for
    /// large catalogs. Files that are not valid stores of this build's
    /// format version are quarantined out of the listing; use
    /// [`Catalog::list_report`] to see them with their typed errors.
    pub fn list(&self) -> Result<Vec<CatalogEntry>, StoreError> {
        Ok(self.list_report()?.entries)
    }

    /// [`Catalog::list`], but corrupt or unreadable `.fxs` files are
    /// *reported*, not dropped: each lands in
    /// [`CatalogListing::quarantined`] with the [`StoreError`] that
    /// disqualified it. One damaged file (a truncated write, a flipped
    /// bit, a foreign file with the right extension) never fails the
    /// listing — and never hides, either, so an operator sees the damage
    /// instead of a silently shorter catalog.
    pub fn list_report(&self) -> Result<CatalogListing, StoreError> {
        let mut listing = CatalogListing::default();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(FILE_EXTENSION) {
                continue;
            }
            // The in-memory open, not `LazyStore::open`: a listing is not
            // a session open and must not count as one in
            // `Counter::StoreOpens` / `StoreOpenErrors`.
            let opened = StoreBytes::open(&path)
                .map_err(StoreError::from)
                .and_then(LazyStore::from_store_bytes);
            match opened {
                Ok(store) => listing.entries.push(CatalogEntry {
                    meta: store.meta().clone(),
                    file_bytes: store.file_bytes(),
                    path,
                }),
                Err(error) => listing.quarantined.push(QuarantinedEntry { path, error }),
            }
        }
        listing
            .entries
            .sort_by(|a, b| a.meta.name.cmp(&b.meta.name));
        listing.quarantined.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(listing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpath_ftsearch::InvertedIndex;
    use flexpath_reference::ScratchDir;
    use flexpath_xmldom::{parse, DocStats};

    fn builder(name: &str, xml: &str) -> StoreBuilder {
        let doc = parse(xml).unwrap();
        let stats = DocStats::compute(&doc);
        let index = InvertedIndex::build(&doc);
        StoreBuilder::from_parts(name, &doc, &stats, &index)
    }

    #[test]
    fn save_load_list_remove() {
        let scratch = ScratchDir::new("catalog-basic");
        let dir = scratch.path();
        let cat = Catalog::open(dir).unwrap();
        cat.save(&builder("alpha", "<a>gold</a>")).unwrap();
        cat.save(&builder("beta", "<b><c>silver</c></b>")).unwrap();
        assert!(cat.contains("alpha"));
        assert!(!cat.contains("gamma"));

        let listing = cat.list().unwrap();
        assert_eq!(listing.len(), 2);
        assert_eq!(listing[0].meta.name, "alpha");
        assert_eq!(listing[1].meta.name, "beta");

        let store = cat.open_lazy("beta").unwrap();
        assert_eq!(store.index().unwrap().df("silver"), 1);

        cat.remove("alpha").unwrap();
        assert!(!cat.contains("alpha"));
        assert!(matches!(
            cat.open_lazy("alpha"),
            Err(StoreError::DocumentNotFound { .. })
        ));
    }

    #[test]
    fn names_are_sanitized() {
        let scratch = ScratchDir::new("catalog-names");
        let dir = scratch.path();
        let cat = Catalog::open(dir).unwrap();
        for bad in ["", ".", "..", "a/b", "a\\b", "x y", ".hidden", "a\0b"] {
            assert!(
                matches!(cat.path_for(bad), Err(StoreError::InvalidName { .. })),
                "name {bad:?} must be rejected"
            );
        }
        for good in ["doc", "Doc-1", "a.b_c", "XMARK-10mb"] {
            assert!(cat.path_for(good).is_ok(), "name {good:?} must be accepted");
        }
    }

    #[test]
    fn listing_skips_non_store_files() {
        let scratch = ScratchDir::new("catalog-skip");
        let dir = scratch.path();
        let cat = Catalog::open(dir).unwrap();
        cat.save(&builder("real", "<a>x1</a>")).unwrap();
        std::fs::write(dir.join("junk.fxs"), b"not a store").unwrap();
        std::fs::write(dir.join("other.txt"), b"ignored").unwrap();
        let listing = cat.list().unwrap();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].meta.name, "real");
        // The full report surfaces the junk file with its typed error
        // (non-.fxs files stay invisible: they were never claimed).
        let report = cat.list_report().unwrap();
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].path.ends_with("junk.fxs"));
        assert!(matches!(
            report.quarantined[0].error,
            StoreError::BadMagic | StoreError::Truncated { .. }
        ));
    }

    #[test]
    fn save_replaces_existing_document() {
        let scratch = ScratchDir::new("catalog-replace");
        let dir = scratch.path();
        let cat = Catalog::open(dir).unwrap();
        cat.save(&builder("doc", "<a>old</a>")).unwrap();
        cat.save(&builder("doc", "<a>new shiny</a>")).unwrap();
        let store = cat.open_lazy("doc").unwrap();
        let index = store.index().unwrap();
        assert_eq!(index.df("old"), 0);
        assert_eq!(index.df("shini"), 1); // Porter-stemmed "shiny"
        assert_eq!(cat.list().unwrap().len(), 1);
    }
}
