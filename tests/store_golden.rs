//! Golden-file drift check: the committed `tests/golden/tiny_v3.fxs` is
//! the byte-exact serialization of a fixed tiny corpus in the container
//! version this build writes (v3: aligned layout, column payloads). Any
//! change to the wire layout — container, section payloads, encoding
//! order — flips these bytes and fails this test.
//!
//! That failure is the prompt: either revert the accidental layout change,
//! or (for a deliberate format change) bump the container version and
//! regenerate the golden file with
//!
//! ```text
//! cargo test -q --test store_golden -- --ignored regenerate
//! ```
//!
//! A build reads only the version it writes. A file of any other version —
//! older or newer — is refused with a typed error that names the rebuild
//! command, at every entry point that reads a header.

use flexpath::{Catalog, FleXPath, LazyStore, StoreError};
use flexpath_reference::ScratchDir;
use flexpath_store::{inspect_bytes, StoreBuilder, StoreBytes, FORMAT_VERSION};
use std::path::PathBuf;

/// The fixed corpus. Never edit: the golden bytes encode exactly this.
const TINY_XML: &str = r#"<site>
  <item id="i1"><name>gold watch</name>
    <description><parlist><listitem>a rare gold watch</listitem></parlist></description>
    <mailbox><mail><text>is the <bold>gold</bold> watch still available</text></mail></mailbox>
  </item>
  <item id="i2"><name>tin whistle</name>
    <description>a plain tin whistle</description>
  </item>
</site>"#;

/// The committed golden image.
const GOLDEN: &str = "tiny_v3.fxs";

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(GOLDEN)
}

fn current_bytes() -> Vec<u8> {
    let flex = FleXPath::from_xml(TINY_XML).expect("tiny corpus parses");
    let ctx = flex.context();
    StoreBuilder::from_parts("tiny", ctx.doc(), ctx.stats(), ctx.index()).to_bytes()
}

/// Ranked hits of one query, scores bit for bit.
fn hits(flex: &FleXPath) -> Vec<(u32, u64, u64)> {
    flex.query("//item[./mailbox/mail/text]")
        .expect("query parses")
        .top(5)
        .execute()
        .expect("query runs")
        .hits
        .iter()
        .map(|h| (h.node.0, h.score.ss.to_bits(), h.score.ks.to_bits()))
        .collect()
}

#[test]
fn format_matches_committed_golden_files() {
    let golden = std::fs::read(golden_path()).unwrap_or_else(|_| {
        panic!(
            "tests/golden/{GOLDEN} missing — regenerate with \
             `cargo test -q --test store_golden -- --ignored regenerate`"
        )
    });
    let current = current_bytes();
    assert_eq!(
        u32::from_le_bytes(current[8..12].try_into().expect("version field")),
        FORMAT_VERSION,
        "the builder writes container version {FORMAT_VERSION}"
    );
    assert_eq!(
        current,
        golden,
        "store serialization drifted from the committed golden file \
         {GOLDEN} (first differing byte: {:?}). If the layout change is \
         deliberate, bump the container version and regenerate with \
         `cargo test -q --test store_golden -- --ignored regenerate`; \
         otherwise revert the encoding change.",
        current
            .iter()
            .zip(golden.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| current.len().min(golden.len()))
    );
}

#[test]
fn golden_files_still_open_and_answer_identically() {
    // Drift aside, the committed bytes must open with the current reader,
    // lazily, and answer exactly as the corpus parsed from XML does.
    let flex = FleXPath::open(&golden_path()).expect("golden file opens");
    assert!(!flex.residency().document, "the golden opens lazily");
    let parsed = FleXPath::from_xml(TINY_XML).expect("tiny corpus parses");
    let golden_hits = hits(&flex);
    assert!(!golden_hits.is_empty(), "golden corpus has a matching item");
    assert_eq!(golden_hits, hits(&parsed));
}

#[test]
fn other_format_versions_are_refused_with_the_rebuild_command() {
    // The golden with only its version field patched: the header CRC is
    // now stale too, so this also holds the version check before the CRC.
    let golden = std::fs::read(golden_path()).expect("golden file reads");
    let scratch = ScratchDir::new("golden-versions");
    let catalog = Catalog::open(scratch.path()).expect("catalog opens");
    let refused = |e: &StoreError, found: u32| {
        matches!(
            e,
            StoreError::UnsupportedVersion { found: f, supported: 3 } if *f == found
        ) && e.to_string().contains("flexpath-cli index")
    };
    for found in [1u32, 2, 4] {
        let mut bytes = golden.clone();
        bytes[8..12].copy_from_slice(&found.to_le_bytes());
        let path = scratch.path().join(format!("v{found}.fxs"));
        std::fs::write(&path, &bytes).expect("write patched golden");

        let e = FleXPath::open(&path)
            .err()
            .expect("FleXPath::open refuses it");
        assert!(refused(&e, found), "FleXPath::open, v{found}: {e}");
        let e = LazyStore::from_store_bytes(StoreBytes::from_vec(bytes.clone()))
            .expect_err("from_store_bytes refuses it");
        assert!(refused(&e, found), "from_store_bytes, v{found}: {e}");
        let e = inspect_bytes(&bytes).expect_err("inspect_bytes refuses it");
        assert!(refused(&e, found), "inspect_bytes, v{found}: {e}");
    }
    let listing = catalog.list_report().expect("listing survives");
    assert!(listing.entries.is_empty());
    let quarantined: Vec<_> = listing
        .quarantined
        .iter()
        .map(|q| (q.path.file_name().expect("file name").to_owned(), &q.error))
        .collect();
    assert_eq!(quarantined.len(), 3, "{quarantined:?}");
    for ((file, e), found) in quarantined.into_iter().zip([1u32, 2, 4]) {
        assert_eq!(file, format!("v{found}.fxs").as_str());
        assert!(refused(e, found), "list_report, v{found}: {e}");
    }
}

/// Regenerates the golden file. Run explicitly after a deliberate format
/// change (with the version bump already in place):
/// `cargo test -q --test store_golden -- --ignored regenerate`.
#[test]
#[ignore = "writes tests/golden/tiny_v3.fxs; run explicitly after a format bump"]
fn regenerate() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("parent")).expect("golden dir");
    std::fs::write(&path, current_bytes()).expect("write golden file");
}
