//! Writing one document's persistent image ([`StoreBuilder`]) and the
//! `meta` summary every reader decodes first ([`StoreMeta`]).
//!
//! A store file bundles everything [`flexpath_engine::EngineContext`]
//! needs, so opening one skips XML parsing, statistics collection, and
//! index construction entirely — the cold-start elimination this
//! subsystem exists for. Reading lives in [`crate::lazy`].

use crate::error::StoreError;
use crate::format::{self, SectionId};
use flexpath_engine::metrics::{self, Counter, Timer};
use flexpath_ftsearch::InvertedIndex;
use flexpath_xmldom::codec::{encode_nodes, encode_stats, encode_symbols};
use flexpath_xmldom::wire::{ByteReader, ByteWriter};
use flexpath_xmldom::{DocStats, Document};
use std::path::Path;
use std::time::Instant;

/// Summary fields stored in the `meta` section — readable without
/// decoding any payload (this is what [`crate::Catalog::list`] shows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreMeta {
    /// Logical document name (catalog key).
    pub name: String,
    /// Node count of the stored document.
    pub nodes: u64,
    /// Distinct indexed terms.
    pub terms: u64,
    /// Total posting entries (checked against the decoded index on its
    /// first touch).
    pub posting_entries: u64,
}

impl StoreMeta {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(32 + self.name.len());
        w.str(&self.name);
        w.u64(self.nodes);
        w.u64(self.terms);
        w.u64(self.posting_entries);
        w.into_bytes()
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = ByteReader::new(bytes);
        let name = r.str()?.to_string();
        let nodes = r.u64()?;
        let terms = r.u64()?;
        let posting_entries = r.u64()?;
        r.expect_exhausted()?;
        Ok(StoreMeta {
            name,
            nodes,
            terms,
            posting_entries,
        })
    }
}

/// Serializes one document (plus statistics and inverted index) into the
/// store format.
///
/// Output bytes are deterministic: the same inputs always produce the
/// same file, which the golden-file drift check under `tests/golden/`
/// relies on.
#[derive(Debug)]
pub struct StoreBuilder {
    meta: StoreMeta,
    sections: Vec<(SectionId, Vec<u8>)>,
}

impl StoreBuilder {
    /// Encodes `doc`, `stats`, and `index` under the logical name `name`,
    /// in the current [`format::FORMAT_VERSION`] (v3: aligned, columns).
    pub fn from_parts(name: &str, doc: &Document, stats: &DocStats, index: &InvertedIndex) -> Self {
        let (terms, postings) = index.encode();
        let meta = StoreMeta {
            name: name.to_string(),
            nodes: doc.node_count() as u64,
            terms: index.term_count() as u64,
            posting_entries: index.posting_entry_count(),
        };
        let sections = vec![
            (SectionId::Meta, meta.encode()),
            (SectionId::Tags, encode_symbols(doc.symbols())),
            (SectionId::Elems, encode_nodes(doc)),
            (SectionId::Stats, encode_stats(stats)),
            (SectionId::Terms, terms),
            (SectionId::Postings, postings),
        ];
        StoreBuilder { meta, sections }
    }

    /// The meta fields this builder will write.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// Serializes the full store file to a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        format::assemble(&self.sections)
    }

    /// Writes the store to `path` atomically (temp file + rename), creating
    /// parent directories as needed. Returns the number of bytes written.
    pub fn write_to(&self, path: &Path) -> Result<u64, StoreError> {
        let start = Instant::now();
        let bytes = self.to_bytes();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        // Write to a sibling temp file first so readers never observe a
        // half-written store; rename is atomic on POSIX filesystems.
        let tmp = path.with_extension("fxs.tmp");
        std::fs::write(&tmp, &bytes)?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(StoreError::Io(e));
        }
        let m = metrics::global();
        m.add(Counter::StoreSaves, 1);
        m.add(Counter::StoreBytesWritten, bytes.len() as u64);
        m.observe_duration(Timer::StoreSave, start.elapsed());
        Ok(bytes.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::LazyStore;
    use crate::mmap::StoreBytes;
    use flexpath_xmldom::parse;

    fn build(xml: &str) -> StoreBuilder {
        let doc = parse(xml).unwrap();
        let stats = DocStats::compute(&doc);
        let index = InvertedIndex::build(&doc);
        StoreBuilder::from_parts("t", &doc, &stats, &index)
    }

    /// The production decode: open, then touch every part.
    fn decode(bytes: Vec<u8>) -> Result<LazyStore, StoreError> {
        let store = LazyStore::from_store_bytes(StoreBytes::from_vec(bytes))?;
        store.touch_all()?;
        Ok(store)
    }

    #[test]
    fn memory_roundtrip_preserves_counts() {
        let b = build("<a><b>gold silver</b><c>gold</c></a>");
        let store = decode(b.to_bytes()).unwrap();
        assert_eq!(store.name(), "t");
        let doc = store.document().unwrap();
        assert_eq!(store.meta().nodes, doc.node_count() as u64);
        assert_eq!(store.index().unwrap().df("gold"), 2);
        assert_eq!(store.stats().unwrap().element_total(), 3);
        assert_eq!(store.load_trace().name, "store.open");
    }

    #[test]
    fn serialization_is_deterministic() {
        let xml = "<a><b>one two</b><c x=\"1\">three</c></a>";
        assert_eq!(build(xml).to_bytes(), build(xml).to_bytes());
    }

    #[test]
    fn meta_disagreement_is_corrupt() {
        // Hand-assemble a file whose meta claims the wrong node count but
        // whose CRCs are all valid.
        let b = build("<a><b>x1</b></a>");
        let mut sections = b.sections.clone();
        let meta = StoreMeta {
            nodes: 999,
            ..b.meta.clone()
        };
        sections[0].1 = meta.encode();
        assert!(matches!(
            decode(format::assemble(&sections)),
            Err(StoreError::Corrupt(_))
        ));
    }
}
