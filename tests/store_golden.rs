//! Golden-file drift check: the committed `tests/golden/tiny_v3.fxs` is
//! the byte-exact serialization of a fixed tiny corpus in the container
//! version this build writes (v3: aligned layout, column payloads). Any
//! change to the wire layout — container, section payloads, encoding
//! order — flips these bytes and fails this test.
//!
//! That failure is the prompt: either revert the accidental layout change,
//! or (for a deliberate format change) add a new container version and
//! regenerate the golden file with
//!
//! ```text
//! cargo test -q --test store_golden -- --ignored regenerate
//! ```
//!
//! `tests/golden/tiny.fxs` is the same corpus as a v1 build wrote it
//! (dense layout), and `tests/golden/tiny_v2.fxs` as a v2 build wrote it
//! (aligned layout, node records). Nothing writes v1 or v2 any more, so
//! those files are the backward-compatibility fixtures and are never
//! regenerated: the current reader must keep opening them (v1 eagerly — it
//! has no lazy path) and must produce answers identical to the v3 image of
//! the same corpus.

use flexpath::FleXPath;
use flexpath_store::{StoreBuilder, FORMAT_V1, FORMAT_V2, FORMAT_V3};
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

/// (container version, committed file name) for each golden image.
const GOLDENS: &[(u32, &str)] = &[
    (FORMAT_V1, "tiny.fxs"),
    (FORMAT_V2, "tiny_v2.fxs"),
    (FORMAT_V3, "tiny_v3.fxs"),
];

/// The golden this build can still write (and therefore drift-check).
const WRITTEN_GOLDEN: &str = "tiny_v3.fxs";

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn current_bytes() -> Vec<u8> {
    let flex = FleXPath::from_xml(TINY_XML).expect("tiny corpus parses");
    let ctx = flex.context();
    StoreBuilder::from_parts("tiny", ctx.doc(), ctx.stats(), ctx.index()).to_bytes()
}

#[test]
fn format_matches_committed_golden_files() {
    let file = WRITTEN_GOLDEN;
    let golden = std::fs::read(golden_path(file)).unwrap_or_else(|_| {
        panic!(
            "tests/golden/{file} missing — regenerate with \
             `cargo test -q --test store_golden -- --ignored regenerate`"
        )
    });
    let current = current_bytes();
    assert_eq!(
        u32::from_le_bytes(current[8..12].try_into().expect("version field")),
        FORMAT_V3,
        "the builder writes container version {FORMAT_V3}"
    );
    assert_eq!(
        current,
        golden,
        "store serialization drifted from the committed golden file \
         {file} (first differing byte: {:?}). If the layout change is \
         deliberate, add a new container version and regenerate with \
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
    // Drift aside, the committed bytes of EVERY version must decode with
    // the current reader and answer a query with identical results — the
    // backward-compatibility contract: a v1 or v2 file written by an old
    // build keeps working, byte-identical in its answers to a v3 rewrite.
    let mut all_hits = Vec::new();
    for &(version, file) in GOLDENS {
        let flex = FleXPath::open(&golden_path(file)).expect("golden file opens");
        let header = std::fs::read(golden_path(file)).expect("golden file reads");
        assert_eq!(header[8..12], version.to_le_bytes(), "{file} version");
        if version == FORMAT_V1 {
            // v1 has no lazy representation: the open decodes everything.
            assert!(
                flex.residency().index,
                "v1 files must decode eagerly at open"
            );
        }
        let hits = flex
            .query("//item[./mailbox/mail/text]")
            .expect("query parses")
            .top(5)
            .execute()
            .hits;
        assert!(!hits.is_empty(), "golden corpus has a matching item");
        all_hits.push(
            hits.iter()
                .map(|h| (h.node.0, h.score.ss.to_bits(), h.score.ks.to_bits()))
                .collect::<Vec<_>>(),
        );
    }
    for (hits, &(version, _)) in all_hits.iter().zip(GOLDENS) {
        assert_eq!(
            hits, &all_hits[0],
            "v{version} and v1 images of the same corpus must answer identically"
        );
    }
}

/// Regenerates the v3 golden file (the v1 and v2 goldens cannot be
/// rewritten — they are kept as committed). Run explicitly after a deliberate format
/// change (with the version bump already in place):
/// `cargo test -q --test store_golden -- --ignored regenerate`.
#[test]
#[ignore = "writes tests/golden/tiny_v3.fxs; run explicitly after a format bump"]
fn regenerate() {
    let path = golden_path(WRITTEN_GOLDEN);
    std::fs::create_dir_all(path.parent().expect("parent")).expect("golden dir");
    std::fs::write(&path, current_bytes()).expect("write golden file");
}
