//! The container layout: magic, version, and the checksummed section table.
//!
//! ```text
//! offset 0   magic          b"FXPSTORE"                      (8 bytes)
//! offset 8   format version u32 LE                           (4 bytes)
//! offset 12  section count  u32 LE                           (4 bytes)
//! offset 16  section table  count x { id u32, offset u64,
//!                                     len u64, crc32 u32 }   (24 bytes each)
//! ...        header CRC     u32 LE over bytes [0, 16 + 24*count)
//! ...        section payloads, byte-addressed by the table
//! ```
//!
//! Each payload sits at an 8-byte-aligned offset (gap bytes are zero).
//! Alignment makes every section directly addressable inside a
//! memory-mapped file, which is what the lazy open path
//! ([`crate::LazyStore`]) relies on: the header CRC is verified at open,
//! but each *section* CRC is deferred until that section is first touched.
//! `elems`, `terms` and `postings` are little-endian `u32` columns, each
//! 4-byte aligned with its count up front: the document's `labels` and
//! `parents` with its texts and attributes, and the index's term table with
//! one `node`, one `tf` and one positions column over every posting entry
//! (layouts in `flexpath_xmldom::codec` and
//! `flexpath_ftsearch::InvertedIndex::encode`).
//!
//! Every section carries its own CRC-32, and the header (including the
//! table itself) carries one too, so corruption anywhere in the file maps
//! to a *typed* [`StoreError`] — never an out-of-bounds slice.
//!
//! **One readable version.** A build reads exactly the version it writes,
//! [`FORMAT_VERSION`]. A store is derived entirely from its XML, so a
//! format bump retires the previous reader: an older (or newer) file is
//! refused with [`StoreError::UnsupportedVersion`], whose message names
//! the rebuild command. The version check runs before the header CRC check
//! so that a file of another version (whose header may be laid out
//! differently) reports that error rather than a checksum failure.

use crate::crc::crc32;
use crate::error::StoreError;
use flexpath_xmldom::wire::{ByteReader, ByteWriter};

/// First eight bytes of every store file.
pub const MAGIC: [u8; 8] = *b"FXPSTORE";

/// The format version this build writes, and the only one it reads. Bump
/// it on any byte-level change to the container or section payloads — the
/// committed golden file under `tests/golden/` enforces this.
pub const FORMAT_VERSION: u32 = 3;

/// Extension used by [`crate::Catalog`] files.
pub const FILE_EXTENSION: &str = "fxs";

/// Section payload alignment.
pub(crate) const SECTION_ALIGN: u64 = 8;

/// Section identifiers (the `id` field of a table entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionId {
    /// Document name and summary counts.
    Meta = 1,
    /// Interned tag/attribute name dictionary.
    Tags = 2,
    /// Document columns, texts, attributes.
    Elems = 3,
    /// `#(t)`, `#pc`, `#ad` occurrence statistics.
    Stats = 4,
    /// Full-text term dictionary and collection stats.
    Terms = 5,
    /// Full-text posting lists.
    Postings = 6,
}

impl SectionId {
    /// Human-readable section name (used in error variants).
    pub fn name(self) -> &'static str {
        match self {
            SectionId::Meta => "meta",
            SectionId::Tags => "tags",
            SectionId::Elems => "elems",
            SectionId::Stats => "stats",
            SectionId::Terms => "terms",
            SectionId::Postings => "postings",
        }
    }

    /// Maps a raw table id back to a known section, if any.
    pub fn from_raw(id: u32) -> Option<SectionId> {
        match id {
            1 => Some(SectionId::Meta),
            2 => Some(SectionId::Tags),
            3 => Some(SectionId::Elems),
            4 => Some(SectionId::Stats),
            5 => Some(SectionId::Terms),
            6 => Some(SectionId::Postings),
            _ => None,
        }
    }
}

/// One parsed entry of the section table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SectionEntry {
    pub(crate) id: u32,
    pub(crate) offset: u64,
    pub(crate) len: u64,
    pub(crate) crc: u32,
}

const ENTRY_BYTES: usize = 24;
const FIXED_HEADER_BYTES: usize = 16;

fn align_up(offset: u64, align: u64) -> u64 {
    offset.div_ceil(align) * align
}

/// Serializes a whole store file from `(id, payload)` pairs in format
/// [`FORMAT_VERSION`]: every payload offset is aligned to
/// [`SECTION_ALIGN`], with zero padding in the gaps.
pub(crate) fn assemble(sections: &[(SectionId, Vec<u8>)]) -> Vec<u8> {
    let table_end = FIXED_HEADER_BYTES + sections.len() * ENTRY_BYTES;
    let payload_base = (table_end + 4) as u64; // + header CRC
    let mut offset = payload_base;
    let mut offsets = Vec::with_capacity(sections.len());
    for (_, payload) in sections {
        offset = align_up(offset, SECTION_ALIGN);
        offsets.push(offset);
        offset += payload.len() as u64;
    }
    let mut w = ByteWriter::with_capacity(offset as usize);
    w.bytes(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u32(sections.len() as u32);
    for ((id, payload), &off) in sections.iter().zip(&offsets) {
        w.u32(*id as u32);
        w.u64(off);
        w.u64(payload.len() as u64);
        w.u32(crc32(payload));
    }
    let mut bytes = w.into_bytes();
    // lint:allow(panic): encode path — table_end is the writer's own length.
    let header_crc = crc32(&bytes[..table_end]);
    bytes.extend_from_slice(&header_crc.to_le_bytes());
    for ((_, payload), &off) in sections.iter().zip(&offsets) {
        // Zero padding up to the aligned payload offset.
        bytes.resize(off as usize, 0);
        bytes.extend_from_slice(payload);
    }
    bytes
}

/// Parses and verifies the header, returning the section table.
pub(crate) fn parse_header(bytes: &[u8]) -> Result<Vec<SectionEntry>, StoreError> {
    if bytes.len() < MAGIC.len() {
        return Err(StoreError::Truncated { what: "magic" });
    }
    // lint:allow(panic): both slices guarded by the length check above.
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    // lint:allow(panic): guarded by the same magic-length check.
    let mut r = ByteReader::new(&bytes[MAGIC.len()..]);
    let version = r
        .u32()
        .map_err(|_| StoreError::Truncated { what: "version" })?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let count = r.u32().map_err(|_| StoreError::Truncated {
        what: "section count",
    })? as usize;
    let table_end = FIXED_HEADER_BYTES + count * ENTRY_BYTES;
    if bytes.len() < table_end + 4 {
        return Err(StoreError::Truncated {
            what: "section table",
        });
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let id = r.u32().map_err(|_| StoreError::Truncated {
            what: "section table",
        })?;
        let offset = r.u64().map_err(|_| StoreError::Truncated {
            what: "section table",
        })?;
        let len = r.u64().map_err(|_| StoreError::Truncated {
            what: "section table",
        })?;
        let crc = r.u32().map_err(|_| StoreError::Truncated {
            what: "section table",
        })?;
        entries.push(SectionEntry {
            id,
            offset,
            len,
            crc,
        });
    }
    let stored_crc = r.u32().map_err(|_| StoreError::Truncated {
        what: "header checksum",
    })?;
    // lint:allow(panic): `bytes.len() < table_end + 4` was rejected above.
    if crc32(&bytes[..table_end]) != stored_crc {
        return Err(StoreError::ChecksumMismatch { section: "header" });
    }
    Ok(entries)
}

/// Borrows a section's payload after verifying its bounds and its CRC —
/// the validation step every decode runs first.
pub(crate) fn section<'a>(
    bytes: &'a [u8],
    entries: &[SectionEntry],
    id: SectionId,
) -> Result<&'a [u8], StoreError> {
    let entry = entries
        .iter()
        .find(|e| e.id == id as u32)
        .ok_or(StoreError::MissingSection { section: id.name() })?;
    let start = usize::try_from(entry.offset)
        .ok()
        .filter(|&s| s <= bytes.len())
        .ok_or(StoreError::Truncated { what: id.name() })?;
    let len = usize::try_from(entry.len)
        .ok()
        .filter(|&l| l <= bytes.len() - start)
        .ok_or(StoreError::Truncated { what: id.name() })?;
    // lint:allow(panic): start ≤ len(bytes) and len ≤ len(bytes) − start are
    // both enforced by the try_from filters directly above.
    let payload = &bytes[start..start + len];
    if crc32(payload) != entry.crc {
        return Err(StoreError::ChecksumMismatch { section: id.name() });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> Vec<u8> {
        assemble(&[
            (SectionId::Meta, vec![9; 16]),
            (SectionId::Tags, vec![4, 5]),
        ])
    }

    fn known_id(e: &SectionEntry) -> SectionId {
        SectionId::from_raw(e.id).expect("images carry known sections only")
    }

    #[test]
    fn assemble_then_parse_roundtrips() {
        let file = assemble(&[
            (SectionId::Meta, vec![1, 2, 3]),
            (SectionId::Tags, vec![4, 5]),
        ]);
        let entries = parse_header(&file).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            section(&file, &entries, SectionId::Meta).unwrap(),
            &[1, 2, 3]
        );
        assert_eq!(section(&file, &entries, SectionId::Tags).unwrap(), &[4, 5]);
        assert!(matches!(
            section(&file, &entries, SectionId::Stats),
            Err(StoreError::MissingSection { section: "stats" })
        ));
    }

    #[test]
    fn sections_are_aligned_and_padded_with_zeros() {
        let file = assemble(&[
            (SectionId::Meta, vec![1, 2, 3]),
            (SectionId::Tags, vec![4, 5, 6, 7, 8]),
            (SectionId::Stats, vec![9]),
        ]);
        let entries = parse_header(&file).unwrap();
        let mut covered = vec![false; file.len()];
        let table_end = FIXED_HEADER_BYTES + entries.len() * ENTRY_BYTES + 4;
        for c in covered.iter_mut().take(table_end) {
            *c = true;
        }
        for e in &entries {
            assert_eq!(e.offset % SECTION_ALIGN, 0, "unaligned section {}", e.id);
            for i in e.offset..e.offset + e.len {
                covered[i as usize] = true;
            }
        }
        // Every uncovered byte is alignment padding and must be zero.
        for (i, c) in covered.iter().enumerate() {
            if !c {
                assert_eq!(file[i], 0, "nonzero padding at {i}");
            }
        }
    }

    #[test]
    fn bad_magic_and_other_versions_are_typed() {
        let mut file = assemble(&[(SectionId::Meta, vec![])]);
        file[0] ^= 0xff;
        assert!(matches!(parse_header(&file), Err(StoreError::BadMagic)));
        // Every version but this build's, older or newer, is refused
        // before the (now stale) header CRC is checked.
        for found in [0, 1, 2, 4, 0x7f] {
            let mut file = assemble(&[(SectionId::Meta, vec![])]);
            file[8] = found as u8; // version low byte
            assert!(
                matches!(
                    parse_header(&file),
                    Err(StoreError::UnsupportedVersion {
                        found: f,
                        supported: FORMAT_VERSION
                    }) if f == found
                ),
                "version {found}"
            );
        }
    }

    #[test]
    fn header_and_section_corruption_hit_their_crcs() {
        let file = image();
        // Corrupt a table byte: header CRC must catch it.
        let mut bad = file.clone();
        bad[20] ^= 0xff;
        assert!(matches!(
            parse_header(&bad),
            Err(StoreError::ChecksumMismatch { section: "header" })
        ));
        // Corrupt the last byte — inside the last section's payload: that
        // section's CRC must catch it.
        let mut bad = file.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        let entries = parse_header(&bad).unwrap();
        let id = known_id(entries.last().unwrap());
        assert!(matches!(
            section(&bad, &entries, id),
            Err(StoreError::ChecksumMismatch { section }) if section == id.name()
        ));
    }

    #[test]
    fn every_truncation_point_is_typed() {
        let file = image();
        for cut in 0..file.len() {
            let head = &file[..cut];
            if let Ok(entries) = parse_header(head) {
                // Header happens to fit; a payload must then fail.
                assert!(
                    entries
                        .iter()
                        .any(|e| section(head, &entries, known_id(e)).is_err()),
                    "cut at {cut}"
                );
            }
        }
    }
}
