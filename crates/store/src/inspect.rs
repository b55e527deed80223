//! Operator-facing store inspection: the section table, CRC state, and
//! meta summary of a store file, without decoding any payload.
//!
//! Backs `flexpath-cli store inspect <file>`. Payload corruption is
//! *reported* (`crc_ok = false`) rather than failing the inspection — the
//! point is debuggability of damaged files. Only an unreadable or
//! unparseable *header* is an error (a file of another format version
//! included), since without a valid table there is nothing to report.

use crate::crc::crc32;
use crate::error::StoreError;
use crate::format::{self, SectionId};
use crate::mmap::StoreBytes;
use crate::store::StoreMeta;
use std::path::Path;

/// One row of the section table, with its verification state.
#[derive(Debug, Clone)]
pub struct SectionReport {
    /// Raw section id from the table.
    pub id: u32,
    /// Human-readable name (`"unknown"` for ids this build doesn't know).
    pub name: &'static str,
    /// Byte offset of the payload within the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 stored in the table.
    pub crc_stored: u32,
    /// Whether the payload bytes are in bounds and match `crc_stored`.
    pub crc_ok: bool,
}

/// Everything `store inspect` shows about one file.
#[derive(Debug, Clone)]
pub struct StoreInspection {
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Decoded meta summary, if the meta section is intact.
    pub meta: Option<StoreMeta>,
    /// One row per section-table entry, in table order.
    pub sections: Vec<SectionReport>,
}

impl StoreInspection {
    /// Whether every section's payload verified.
    pub fn all_crc_ok(&self) -> bool {
        self.sections.iter().all(|s| s.crc_ok)
    }
}

/// Inspects the store image in `bytes`.
pub fn inspect_bytes(bytes: &[u8]) -> Result<StoreInspection, StoreError> {
    let entries = format::parse_header(bytes)?;
    let mut sections = Vec::with_capacity(entries.len());
    for e in &entries {
        let payload = usize::try_from(e.offset).ok().and_then(|start| {
            let len = usize::try_from(e.len).ok()?;
            bytes.get(start..start.checked_add(len)?)
        });
        let crc_ok = payload.is_some_and(|p| crc32(p) == e.crc);
        sections.push(SectionReport {
            id: e.id,
            name: SectionId::from_raw(e.id).map_or("unknown", SectionId::name),
            offset: e.offset,
            len: e.len,
            crc_stored: e.crc,
            crc_ok,
        });
    }
    let meta = format::section(bytes, &entries, SectionId::Meta)
        .ok()
        .and_then(|p| StoreMeta::decode(p).ok());
    Ok(StoreInspection {
        file_bytes: bytes.len() as u64,
        meta,
        sections,
    })
}

/// Inspects the store file at `path`.
pub fn inspect_file(path: &Path) -> Result<StoreInspection, StoreError> {
    let bytes = StoreBytes::open(path)?;
    inspect_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreBuilder;
    use flexpath_ftsearch::InvertedIndex;
    use flexpath_xmldom::{parse, DocStats};

    fn image() -> Vec<u8> {
        let doc = parse("<a><b>gold coin</b></a>").unwrap();
        let stats = DocStats::compute(&doc);
        let index = InvertedIndex::build(&doc);
        StoreBuilder::from_parts("doc", &doc, &stats, &index).to_bytes()
    }

    #[test]
    fn inspects_a_current_image() {
        let bytes = image();
        let report = inspect_bytes(&bytes).unwrap();
        assert_eq!(report.file_bytes, bytes.len() as u64);
        assert_eq!(report.sections.len(), 6);
        assert!(report.all_crc_ok());
        assert_eq!(report.meta.as_ref().unwrap().name, "doc");
        let names: Vec<_> = report.sections.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["meta", "tags", "elems", "stats", "terms", "postings"]
        );
    }

    #[test]
    fn payload_corruption_is_reported_not_fatal() {
        let mut bytes = image();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let report = inspect_bytes(&bytes).unwrap();
        assert!(!report.all_crc_ok());
        assert!(!report.sections.last().unwrap().crc_ok);
        // Every other section still verifies.
        assert!(report.sections[..5].iter().all(|s| s.crc_ok));
    }

    #[test]
    fn header_corruption_is_fatal() {
        let mut bytes = image();
        bytes[20] ^= 0xff;
        assert!(matches!(
            inspect_bytes(&bytes),
            Err(StoreError::ChecksumMismatch { section: "header" })
        ));
    }
}
