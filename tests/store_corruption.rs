//! Corruption suite for the persistent store: every damaged input —
//! truncation at any byte, a flipped byte anywhere, wrong magic, a future
//! format version — must surface as a *typed* [`StoreError`], never a
//! panic, never an out-of-bounds slice, never a giant bogus allocation.
//!
//! There is one decoder — the one production serves with — and the
//! sweeps drive it the eager way: open, then touch every part. The lazy
//! discipline is exercised on top: [`FleXPath::open`] verifies the
//! header + meta at open and each section on first touch, so damage in
//! an untouched section must NOT fail the open, and the first touch must
//! surface a typed checksum error through `execute` — never a panic
//! — and count in `engine.store.lazy_decode_errors`.

use flexpath::{
    Catalog, CorpusStore, EngineError, FleXPath, LazyStore, SourceErrorKind, StoreError,
};
use flexpath_reference::ScratchDir;
use flexpath_store::{StoreBytes, FORMAT_VERSION, MAGIC};
use std::ops::Range;
use std::path::PathBuf;

const XML: &str = r#"<site>
  <item><name>gold watch</name><description><parlist><listitem>rare
    collectible watch</listitem></parlist></description>
    <mailbox><mail><text>asking about the <bold>gold</bold> watch</text></mail></mailbox>
    <incategory category="c1"/></item>
  <item><name>silver ring</name><description>plain silver ring, no list
    </description></item>
</site>"#;

/// A healthy store file for the tests to damage.
fn store_bytes() -> Vec<u8> {
    let dir = ScratchDir::new("corruption-seed");
    let path = dir.path().join("doc.fxs");
    FleXPath::from_xml(XML)
        .expect("corpus parses")
        .save(&path, "doc")
        .expect("store saves");
    std::fs::read(&path).expect("store file readable")
}

/// The production decode, driven eagerly: open the image, then touch
/// all three parts.
fn decode(bytes: &[u8]) -> Result<LazyStore, StoreError> {
    let store = LazyStore::from_store_bytes(StoreBytes::from_vec(bytes.to_vec()))?;
    store.document()?;
    store.stats()?;
    store.index()?;
    Ok(store)
}

/// Process-wide count of failed first touches.
fn lazy_decode_errors() -> u64 {
    flexpath::engine_metrics()
        .counters
        .get("engine.store.lazy_decode_errors")
        .copied()
        .unwrap_or(0)
}

/// The byte ranges of a store image that are semantically live: the
/// header (fixed fields + section table + header CRC) and every section
/// payload. The image also contains zero padding between payloads
/// (for 8-byte alignment) that no CRC covers — flipping those bytes must
/// NOT break decoding, which is exactly what the sweep below asserts.
fn covered_ranges(bytes: &[u8]) -> Vec<Range<usize>> {
    assert_eq!(&bytes[..8], &MAGIC);
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    // Fixed header + table + the trailing header CRC-32.
    let mut ranges = Vec::with_capacity(count + 1);
    ranges.push(0..16 + count * 24 + 4);
    for i in 0..count {
        let e = 16 + i * 24;
        let offset = u64::from_le_bytes(bytes[e + 4..e + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[e + 12..e + 20].try_into().unwrap()) as usize;
        ranges.push(offset..offset + len);
    }
    ranges
}

/// Offset and length of the section with raw id `id`.
fn section_range(bytes: &[u8], id: u32) -> Range<usize> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    for i in 0..count {
        let e = 16 + i * 24;
        if u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == id {
            let offset = u64::from_le_bytes(bytes[e + 4..e + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[e + 12..e + 20].try_into().unwrap()) as usize;
            return offset..offset + len;
        }
    }
    panic!("section id {id} not found in table");
}

#[test]
fn healthy_file_decodes() {
    let store = decode(&store_bytes()).expect("undamaged file loads");
    assert_eq!(store.name(), "doc");
}

#[test]
fn every_truncation_point_is_a_typed_error() {
    let bytes = store_bytes();
    for cut in 0..bytes.len() {
        let err = decode(&bytes[..cut]).expect_err("truncated file must not decode");
        // The Display impl must also hold up on every variant.
        let _ = format!("{err}");
    }
}

#[test]
fn every_single_byte_flip_is_detected() {
    // The header is covered by the header CRC (and the magic/version
    // checks before it); every payload byte is covered by its section
    // CRC — so no flip in a *live* byte may decode successfully. The only
    // bytes outside those ranges are the alignment padding: zeroes
    // that no reader ever interprets, whose flips must decode to the same
    // store (robustness against e.g. a tool that rewrites dead bytes).
    let bytes = store_bytes();
    let covered = covered_ranges(&bytes);
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        if covered.iter().any(|r| r.contains(&i)) {
            let err = decode(&bad)
                .err()
                .unwrap_or_else(|| panic!("flip at live byte {i} went undetected"));
            let _ = format!("{err}");
        } else {
            assert_eq!(bytes[i], 0, "padding byte {i} must be zero as written");
            let store = decode(&bad)
                .unwrap_or_else(|e| panic!("flip at padding byte {i} broke decode: {e}"));
            assert_eq!(store.name(), "doc");
        }
    }
}

#[test]
fn wrong_magic_is_typed() {
    let mut bytes = store_bytes();
    bytes[..8].copy_from_slice(b"NOTAFXPS");
    assert!(matches!(decode(&bytes), Err(StoreError::BadMagic)));
}

#[test]
fn future_version_reports_unsupported_not_checksum() {
    // A future writer may lay the header out differently, so the version
    // check must win over the (now stale) header CRC.
    let mut bytes = store_bytes();
    let future = FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&future.to_le_bytes());
    match decode(&bytes) {
        Err(StoreError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, future);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn flipped_byte_in_each_section_names_that_section() {
    let bytes = store_bytes();
    assert_eq!(&bytes[..8], &MAGIC);
    // Walk the section table (16-byte fixed header, then 24-byte entries:
    // id u32, offset u64, len u64, crc u32 — all little-endian).
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    assert!(count >= 6, "expected all six sections, found {count}");
    for i in 0..count {
        let e = 16 + i * 24;
        let offset = u64::from_le_bytes(bytes[e + 4..e + 12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[e + 12..e + 20].try_into().unwrap()) as usize;
        if len == 0 {
            continue;
        }
        let mut bad = bytes.clone();
        bad[offset + len / 2] ^= 0xff;
        match decode(&bad) {
            Err(StoreError::ChecksumMismatch { .. }) => {}
            other => panic!("section {i} flip: expected ChecksumMismatch, got {other:?}"),
        }
    }
}

/// Writes a (possibly damaged) image to a fresh scratch directory and
/// returns it with the file's path; dropping the directory removes both.
fn write_store(tag: &str, bytes: &[u8]) -> (ScratchDir, PathBuf) {
    let dir = ScratchDir::new(tag);
    let path = dir.path().join("doc.fxs");
    std::fs::write(&path, bytes).expect("write store");
    (dir, path)
}

#[test]
fn lazy_open_tolerates_corruption_in_untouched_sections() {
    // Flip a byte inside the postings payload. A lazy open validates only
    // the header and meta, so the open must succeed, and a structure-only
    // query (which never touches the index) must answer normally.
    let bytes = store_bytes();
    let postings = section_range(&bytes, 6);
    let mut bad = bytes.clone();
    bad[postings.start + postings.len() / 2] ^= 0xff;
    let (_dir, path) = write_store("lazy-postings", &bad);

    let flex = FleXPath::open(&path).expect("lazy open ignores untouched damage");
    let errors_before = lazy_decode_errors();
    let hits = flex
        .query("//item[./name]")
        .expect("query parses")
        .top(5)
        .execute()
        .expect("structure-only query never touches the damaged index")
        .hits;
    assert_eq!(hits.len(), 2);

    // The first full-text touch must surface the damage as a typed
    // checksum error naming the index — never a panic.
    let err = flex
        .query(r#"//item[.contains("gold")]"#)
        .expect("query parses")
        .top(5)
        .execute()
        .expect_err("full-text query touches the damaged postings");
    match err {
        EngineError::Store(src) => {
            assert_eq!(src.part, "index");
            assert_eq!(src.kind, SourceErrorKind::Checksum);
        }
        other => panic!("expected EngineError::Store, got {other:?}"),
    }

    // The fault is durable: asking again re-surfaces the same error.
    assert!(flex
        .query(r#"//item[.contains("gold")]"#)
        .expect("query parses")
        .top(5)
        .execute()
        .is_err());

    // Both failed touches are visible to an operator: the open succeeded
    // (`engine.store.open_errors` did not move for this file), so this
    // counter is the only signal that the store is damaged. The registry
    // is process-wide and other tests fail touches too, hence `>=`.
    assert!(
        lazy_decode_errors() >= errors_before + 2,
        "each failed first touch counts in engine.store.lazy_decode_errors"
    );
}

#[test]
fn lazy_first_structural_touch_surfaces_document_damage() {
    // Damage the elems section (id 3): the open still succeeds (header +
    // meta verify), and the *first structural touch* reports a typed
    // checksum error for the document part.
    let bytes = store_bytes();
    let elems = section_range(&bytes, 3);
    let mut bad = bytes.clone();
    bad[elems.start + elems.len() / 2] ^= 0xff;
    let (_dir, path) = write_store("lazy-elems", &bad);

    let flex = FleXPath::open(&path).expect("open validates only header + meta");
    let err = flex
        .query("//item[./name]")
        .expect("query parses")
        .top(5)
        .execute()
        .expect_err("structural query touches the damaged document");
    match err {
        EngineError::Store(src) => {
            assert_eq!(src.part, "document");
            assert_eq!(src.kind, SourceErrorKind::Checksum);
        }
        other => panic!("expected EngineError::Store, got {other:?}"),
    }
    // The fallible document accessor reports the same typed failure.
    assert!(flex.document().is_err());
}

#[test]
fn eager_open_still_rejects_any_section_damage_up_front() {
    // The eager open: everything decodes (and therefore verifies) before
    // the open returns.
    let bytes = store_bytes();
    let postings = section_range(&bytes, 6);
    let mut bad = bytes.clone();
    bad[postings.start + postings.len() / 2] ^= 0xff;
    let (_dir, path) = write_store("eager-postings", &bad);
    assert!(matches!(
        CorpusStore::open(&path),
        Err(StoreError::ChecksumMismatch { .. })
    ));
    // The same through a session: open, then materialize everything.
    let flex = FleXPath::open(&path).expect("open validates only header + meta");
    match flex.materialize(true) {
        Err(EngineError::Store(src)) => assert_eq!(src.kind, SourceErrorKind::Checksum),
        other => panic!("expected a typed checksum error, got {other:?}"),
    }
}

#[test]
fn on_disk_garbage_and_truncation_are_typed_through_open() {
    let scratch = ScratchDir::new("corruption-disk");
    let dir = scratch.path();
    let garbage = dir.join("garbage.fxs");
    std::fs::write(&garbage, b"this is not a store file").expect("write");
    assert!(matches!(
        CorpusStore::open(&garbage),
        Err(StoreError::BadMagic)
    ));
    let bytes = store_bytes();
    let truncated = dir.join("truncated.fxs");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).expect("write");
    match CorpusStore::open(&truncated) {
        Ok(_) => panic!("truncated file must not open"),
        Err(e) => {
            let _ = format!("{e}");
        }
    }
}

#[test]
fn catalog_listing_quarantines_damaged_entries() {
    // A catalog directory with one healthy store, one store truncated
    // mid-header, one with a bit flipped in the section table, and one
    // plain-garbage file: `list_report` must serve the healthy entry and
    // quarantine each damaged file with a typed error — never fail the
    // whole listing, never panic. (Listing verifies only the header and
    // meta section — that is what keeps it cheap — so the damage here is
    // aimed at that region; payload damage is caught at load time, see
    // the flip/truncation sweeps above.)
    let scratch = ScratchDir::new("corruption-quarantine");
    let dir = scratch.path();
    let bytes = store_bytes();
    std::fs::write(dir.join("healthy.fxs"), &bytes).expect("write healthy");
    std::fs::write(dir.join("truncated.fxs"), &bytes[..20]).expect("write truncated");
    let mut flipped = bytes.clone();
    flipped[17] ^= 0xff; // inside the section table, covered by the header CRC
    std::fs::write(dir.join("flipped.fxs"), &flipped).expect("write flipped");
    std::fs::write(dir.join("garbage.fxs"), b"junk").expect("write garbage");
    // Non-.fxs files are not the catalog's business at all.
    std::fs::write(dir.join("notes.txt"), b"ignore me").expect("write notes");

    let catalog = Catalog::open(dir).expect("catalog opens");
    let report = catalog.list_report().expect("listing survives corruption");
    assert_eq!(report.entries.len(), 1, "only the healthy store lists");
    assert_eq!(report.entries[0].meta.name, "doc");
    assert_eq!(
        report.quarantined.len(),
        3,
        "every damaged .fxs file is quarantined: {:?}",
        report.quarantined
    );
    for q in &report.quarantined {
        // Typed error with a working Display, and the path names the file.
        assert!(q.path.extension().is_some_and(|x| x == "fxs"));
        let _ = format!("{}", q.error);
    }

    // The legacy `list()` keeps working and agrees with the report.
    let entries = catalog.list().expect("list() tolerates corruption");
    assert_eq!(entries.len(), 1);

    // Quarantine is observation, not repair: the healthy entry still
    // loads (by file name — the meta name inside is "doc").
    let store = catalog.open_lazy("healthy").expect("healthy store opens");
    assert_eq!(store.name(), "doc");
}
