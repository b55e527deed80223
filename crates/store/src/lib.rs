//! # flexpath-store
//!
//! Persistent corpus store for the FleXPath reproduction: a versioned,
//! checksummed binary format holding everything a query session needs —
//! the document's node columns (its `(start, end, level)` labels derive
//! from them), the tag dictionary, the `#(t)`/`#pc`/`#ad` statistics
//! behind predicate penalties, and the positional inverted index with its
//! collection stats. Opening a store ([`LazyStore::open`]) replaces the parse +
//! stats + index cold-start with an O(header) validated open; each part
//! is CRC-verified and decoded the first time something touches it. The
//! store *is* lazy — there is one decoder — and an eager open is a usage:
//! open, then touch all three parts ([`CorpusStore::open`]). The XML IR
//! survey literature treats exactly this labeled-tree + postings store as
//! table stakes for serving tree-pattern/full-text queries at scale.
//!
//! Design rules:
//!
//! * **Typed failure, never panic.** Truncation, bad magic, any format
//!   version but the one this build writes, a flipped bit anywhere — each
//!   maps to a [`StoreError`] variant. Per-section CRC-32s (plus one over
//!   the header) catch corruption before decoding; the decoders underneath
//!   validate every cross-reference anyway.
//! * **Deterministic bytes.** Identical inputs produce identical files
//!   (dictionaries sorted, no timestamps), so a committed golden file
//!   can detect format drift that lacks a version bump.
//! * **Observable loads.** Opens, first-touch decodes and their failures
//!   emit `engine.store.*` metrics.
//! * **Byte-identical answers.** A loaded session must reproduce the
//!   exact top-K results and `counter_fingerprint()`s of an in-memory
//!   build; the load trace span is therefore kept out of query traces.
//!
//! ```no_run
//! use flexpath_store::{Catalog, StoreBuilder};
//! use flexpath_ftsearch::InvertedIndex;
//! use flexpath_xmldom::{parse, DocStats};
//! use std::path::Path;
//!
//! let doc = parse("<site><item>gold watch</item></site>").unwrap();
//! let stats = DocStats::compute(&doc);
//! let index = InvertedIndex::build(&doc);
//! let catalog = Catalog::open(Path::new("store-dir")).unwrap();
//! catalog
//!     .save(&StoreBuilder::from_parts("auctions", &doc, &stats, &index))
//!     .unwrap();
//! let store = catalog.open_lazy("auctions").unwrap();
//! assert_eq!(store.index().unwrap().df("gold"), 1);
//! ```

// Library targets must stay panic-free on input-reachable paths; the
// workspace `no_panics` test enforces the same rule by source scan.
// `unsafe` is denied crate-wide with exactly one sanctioned escape: the
// raw mmap/munmap calls in `mmap::sys`, each carrying a SAFETY comment
// and a scoped `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod catalog;
pub mod crc;
pub mod error;
pub mod format;
pub mod inspect;
pub mod lazy;
pub mod mmap;
pub mod store;

pub use catalog::{Catalog, CatalogEntry, CatalogListing, QuarantinedEntry};
pub use crc::crc32;
pub use error::StoreError;
pub use format::{SectionId, FILE_EXTENSION, FORMAT_VERSION, MAGIC};
pub use inspect::{inspect_bytes, inspect_file, SectionReport, StoreInspection};
pub use lazy::{CorpusStore, LazyStore};
pub use mmap::StoreBytes;
pub use store::{StoreBuilder, StoreMeta};
