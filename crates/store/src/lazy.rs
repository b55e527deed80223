//! The store: a memory-mapped file whose sections are validated and
//! decoded on first touch. This is the only decoder of the format.
//!
//! [`LazyStore::open`] does O(header) work — map the file, verify the
//! header CRC, decode the tiny `meta` section — and returns in
//! milliseconds regardless of corpus size. The three expensive parts
//! (document arena, statistics, inverted index) stay as raw mapped bytes
//! until a query actually needs them:
//!
//! * first structural touch → `tags` + `elems` sections are CRC-verified
//!   and decoded into the [`Document`], then `stats`;
//! * first full-text touch → `terms` + `postings` are CRC-verified and
//!   decoded into the [`InvertedIndex`].
//!
//! Decoding happens at most once per part (a double-checked `OnceLock`
//! cell; a per-part mutex serializes racing first touches). Failures are
//! **not** cached: a corrupt section reports the same typed
//! [`StoreError`] on every touch (and counts
//! `engine.store.lazy_decode_errors` each time), and an operator
//! replacing the file can simply reopen.
//!
//! **Eager is a usage, not a second decoder.** A caller that prefers
//! open-time validation over open-time speed opens and then touches all
//! three parts; [`CorpusStore::open`] is exactly that.
//!
//! [`LazyStore`] implements [`ContextSource`], so an
//! [`EngineContext`](flexpath_engine::EngineContext) sits directly on top
//! of it; the engine's `ensure_ready` / `try_*` accessors are the
//! fallible surface through which first-touch errors reach callers.

use crate::error::StoreError;
use crate::format::{self, SectionId, FORMAT_VERSION};
use crate::mmap::StoreBytes;
use crate::store::StoreMeta;
use flexpath_engine::metrics::{self, Counter, Timer, TraceSpan};
use flexpath_engine::{ContextSource, SourceError, SourceErrorKind, SourceResidency};
use flexpath_ftsearch::InvertedIndex;
use flexpath_xmldom::codec::{decode_document, decode_stats};
use flexpath_xmldom::{CodecError, DocStats, Document};
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One lazily decoded part: the value once it exists, and the mutex that
/// serializes racing first touches.
#[derive(Debug)]
struct Part<T> {
    cell: OnceLock<T>,
    init: Mutex<()>,
}

impl<T> Part<T> {
    fn new() -> Self {
        Part {
            cell: OnceLock::new(),
            init: Mutex::new(()),
        }
    }

    fn is_resident(&self) -> bool {
        self.cell.get().is_some()
    }

    /// The part, running `decode` (which returns the value and the number
    /// of section bytes it read) if no touch has succeeded yet. Every
    /// first touch — document, statistics, index — goes through here, so
    /// the `engine.store.lazy_*` accounting exists once.
    fn first_touch(
        &self,
        decode: impl FnOnce() -> Result<(T, usize), StoreError>,
    ) -> Result<&T, StoreError> {
        if let Some(value) = self.cell.get() {
            return Ok(value);
        }
        // The cell holds an immutable decoded value; a poisoned init mutex
        // only means another thread's decode panicked mid-flight (which
        // the no-panic policy already forbids) — the cell is still either
        // empty or fully set.
        let _init = self.init.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(value) = self.cell.get() {
            return Ok(value);
        }
        let start = Instant::now();
        let m = metrics::global();
        match decode() {
            Ok((value, bytes_read)) => {
                m.add(Counter::StoreLazyDecodes, 1);
                m.add(Counter::StoreBytesRead, bytes_read as u64);
                m.observe_duration(Timer::StoreLazyDecode, start.elapsed());
                Ok(self.cell.get_or_init(move || value))
            }
            Err(e) => {
                m.add(Counter::StoreLazyDecodeErrors, 1);
                Err(e)
            }
        }
    }
}

/// A store whose sections decode on demand. See the module docs.
#[derive(Debug)]
pub struct LazyStore {
    bytes: StoreBytes,
    entries: Vec<format::SectionEntry>,
    meta: StoreMeta,
    open_span: TraceSpan,
    doc: Part<Document>,
    stats: Part<DocStats>,
    index: Part<InvertedIndex>,
}

impl LazyStore {
    /// Opens the store at `path`: header and meta are verified now, the
    /// payload sections on first touch.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let start = Instant::now();
        let m = metrics::global();
        let result = StoreBytes::open(path)
            .map_err(StoreError::Io)
            .and_then(Self::from_store_bytes);
        match result {
            Ok(mut store) => {
                let elapsed = start.elapsed();
                store.open_span.duration = elapsed;
                m.add(Counter::StoreOpens, 1);
                m.observe_duration(Timer::StoreOpen, elapsed);
                Ok(store)
            }
            Err(e) => {
                m.add(Counter::StoreOpenErrors, 1);
                Err(e)
            }
        }
    }

    /// The in-memory open path: wraps already-obtained bytes (mapped or
    /// owned); header and meta are verified now, the payload sections on
    /// first touch.
    pub fn from_store_bytes(bytes: StoreBytes) -> Result<Self, StoreError> {
        let entries = format::parse_header(&bytes)?;
        let meta = StoreMeta::decode(format::section(&bytes, &entries, SectionId::Meta)?)?;
        let mut open_span = TraceSpan::new("store.open");
        open_span.add("store.bytes", bytes.len() as u64);
        open_span.add("store.version", u64::from(FORMAT_VERSION));
        open_span.add("store.mapped", u64::from(bytes.is_mapped()));
        open_span.add("store.nodes", meta.nodes);
        open_span.add("store.terms", meta.terms);
        open_span.add("store.posting_entries", meta.posting_entries);
        Ok(LazyStore {
            bytes,
            entries,
            meta,
            open_span,
            doc: Part::new(),
            stats: Part::new(),
            index: Part::new(),
        })
    }

    /// Touches all three parts, reporting the first failure.
    pub(crate) fn touch_all(&self) -> Result<(), StoreError> {
        self.document()?;
        self.stats()?;
        self.index()?;
        Ok(())
    }

    /// The stored meta fields (decoded and verified at open).
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// Logical document name.
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// Whether the file is memory-mapped (false ⇒ owned buffer fallback).
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// Total size of the underlying file image in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// The `store.open` trace span (bytes/version/mapped counters and
    /// the wall-clock open time for [`LazyStore::open`]). Kept *separate*
    /// from query traces on purpose: query `counter_fingerprint()`s must
    /// be identical whether a session was parsed or opened from a store.
    pub fn load_trace(&self) -> &TraceSpan {
        &self.open_span
    }

    /// CRC-verified borrow of one section's payload (the first-touch
    /// validation step).
    fn section(&self, id: SectionId) -> Result<&[u8], StoreError> {
        format::section(&self.bytes, &self.entries, id)
    }

    /// The document arena, decoding `tags` + `elems` on first call.
    pub fn document(&self) -> Result<&Document, StoreError> {
        self.doc.first_touch(|| {
            let tags = self.section(SectionId::Tags)?;
            let elems = self.section(SectionId::Elems)?;
            let doc = decode_document(tags, elems)?;
            if doc.node_count() as u64 != self.meta.nodes {
                return Err(StoreError::Corrupt(CodecError::Invalid {
                    what: "meta node count disagrees with element table",
                    index: self.meta.nodes,
                }));
            }
            Ok((doc, tags.len() + elems.len()))
        })
    }

    /// The structural statistics, decoding `stats` on first call (forces
    /// the document first — the decoder needs the symbol count).
    pub fn stats(&self) -> Result<&DocStats, StoreError> {
        let symbol_count = self.document()?.symbols().len();
        self.stats.first_touch(|| {
            let payload = self.section(SectionId::Stats)?;
            Ok((decode_stats(payload, symbol_count)?, payload.len()))
        })
    }

    /// The inverted index, decoding `terms` + `postings` on first call
    /// (forces the document first — postings are validated against the
    /// node count).
    pub fn index(&self) -> Result<&InvertedIndex, StoreError> {
        let node_count = self.document()?.node_count();
        self.index.first_touch(|| {
            let terms = self.section(SectionId::Terms)?;
            let postings = self.section(SectionId::Postings)?;
            let index = InvertedIndex::decode(terms, postings, node_count)?;
            if index.posting_entry_count() != self.meta.posting_entries
                || index.term_count() as u64 != self.meta.terms
            {
                return Err(StoreError::Corrupt(CodecError::Invalid {
                    what: "meta index counts disagree with postings",
                    index: self.meta.posting_entries,
                }));
            }
            Ok((index, terms.len() + postings.len()))
        })
    }
}

/// The eager open: a [`LazyStore`] with all three parts already decoded,
/// for callers that want every section verified before the open returns.
#[derive(Debug)]
pub struct CorpusStore(pub LazyStore);

impl CorpusStore {
    /// Opens the store at `path` and touches the document, statistics and
    /// index; a damaged section fails here with the error its first touch
    /// reports.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let store = LazyStore::open(path)?;
        store.touch_all()?;
        Ok(CorpusStore(store))
    }
}

/// Maps a first-touch store failure into the engine's source-fault
/// vocabulary (the engine cannot name [`StoreError`] — the crate
/// dependency points store → engine).
fn source_error(part: &'static str, e: &StoreError) -> SourceError {
    let kind = match e {
        StoreError::ChecksumMismatch { .. } => SourceErrorKind::Checksum,
        StoreError::Io(_) => SourceErrorKind::Io,
        _ => SourceErrorKind::Corrupt,
    };
    SourceError {
        part,
        kind,
        detail: e.to_string(),
    }
}

impl ContextSource for LazyStore {
    fn load_document(&self) -> Result<&Document, SourceError> {
        self.document().map_err(|e| source_error("document", &e))
    }

    fn load_stats(&self) -> Result<&DocStats, SourceError> {
        self.stats().map_err(|e| source_error("stats", &e))
    }

    fn load_index(&self) -> Result<&InvertedIndex, SourceError> {
        self.index().map_err(|e| source_error("index", &e))
    }

    fn residency(&self) -> SourceResidency {
        SourceResidency {
            document: self.doc.is_resident(),
            stats: self.stats.is_resident(),
            index: self.index.is_resident(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreBuilder;
    use flexpath_xmldom::parse;

    fn image(xml: &str) -> Vec<u8> {
        let doc = parse(xml).unwrap();
        let stats = DocStats::compute(&doc);
        let index = InvertedIndex::build(&doc);
        StoreBuilder::from_parts("t", &doc, &stats, &index).to_bytes()
    }

    fn lazy(bytes: Vec<u8>) -> Result<LazyStore, StoreError> {
        LazyStore::from_store_bytes(StoreBytes::from_vec(bytes))
    }

    #[test]
    fn open_decodes_nothing_until_touched() {
        let store = lazy(image("<a><b>gold coin</b></a>")).unwrap();
        let r = store.residency();
        assert!(!r.document && !r.stats && !r.index, "open stayed lazy");
        assert_eq!(store.meta().name, "t");
        let doc = store.document().unwrap();
        assert_eq!(doc.node_count() as u64, store.meta().nodes);
        assert!(store.residency().document);
        assert!(!store.residency().index, "index still cold");
        assert_eq!(store.index().unwrap().df("gold"), 1);
        assert!(store.residency().index);
    }

    #[test]
    fn flipped_untouched_section_fails_only_on_touch() {
        let mut bytes = image("<a><b>gold silver coins</b></a>");
        // Flip the last byte: inside the postings payload.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let store = lazy(bytes).expect("open must not touch postings");
        store.document().expect("document section is intact");
        store.stats().expect("stats section is intact");
        let err = store.index().expect_err("postings flip surfaces on touch");
        assert!(matches!(err, StoreError::ChecksumMismatch { .. }));
        // Errors are not cached: same typed error on every touch.
        assert!(matches!(
            store.index(),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn context_source_maps_errors() {
        let mut bytes = image("<a><b>gold</b></a>");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let store = lazy(bytes).unwrap();
        let err = store.load_index().unwrap_err();
        assert_eq!(err.part, "index");
        assert_eq!(err.kind, SourceErrorKind::Checksum);
    }
}
