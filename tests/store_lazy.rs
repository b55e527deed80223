//! Integration suite for the store path: a session opened with
//! [`FleXPath::open`] (header + meta validated, sections decoded on first
//! touch) must be observationally identical to the session it was saved
//! from, and to itself materialized up front — same answers, same scores,
//! same trace counter fingerprints — while only
//! paying for the sections a query actually touches.
//! A memory-mapped reader must also survive the catalog's atomic
//! temp-and-rename replace: the old session keeps serving the old bytes.

use flexpath::{Catalog, FleXPath};
use flexpath_reference::ScratchDir;
use flexpath_store::StoreBuilder;
use std::path::PathBuf;

const XML: &str = r#"<site>
  <item><name>gold watch</name><description><parlist><listitem>rare
    collectible gold watch</listitem></parlist></description>
    <mailbox><mail><text>asking about the <bold>gold</bold> watch</text></mail></mailbox>
    <incategory category="c1"/></item>
  <item><name>silver ring</name><description>plain silver ring, no list
    </description></item>
  <item><name>tin whistle</name><description>a whistle of tin with a
    gold-plated mouthpiece</description></item>
</site>"#;

const QUERIES: &[&str] = &[
    "//item[./name]",
    "//item[./description/parlist]",
    r#"//item[.contains("gold")]"#,
    r#"//item[./description[.contains("gold" and "watch")]]"#,
];

/// The corpus saved into a fresh scratch directory: the directory (its
/// drop removes the file) and the store's path.
fn saved_store(tag: &str) -> (ScratchDir, PathBuf) {
    let dir = ScratchDir::new(tag);
    let path = dir.path().join("doc.fxs");
    FleXPath::from_xml(XML)
        .expect("corpus parses")
        .save(&path, "doc")
        .expect("store saves");
    (dir, path)
}

/// Runs `query` on `flex` and returns the ranked hits (bit-exact scores)
/// plus the trace counter fingerprint.
fn run(flex: &FleXPath, query: &str) -> (Vec<(u32, u64, u64)>, String) {
    let results = flex
        .query(query)
        .expect("query parses")
        .top(10)
        .trace()
        .execute()
        .unwrap();
    let hits = results
        .hits
        .iter()
        .map(|h| (h.node.0, h.score.ss.to_bits(), h.score.ks.to_bits()))
        .collect();
    let fp = results
        .trace
        .expect("trace requested")
        .counter_fingerprint();
    (hits, fp)
}

#[test]
fn lazy_and_eager_sessions_answer_byte_identically() {
    // The reference is the session parsed from XML (no store involved);
    // `eager` is the same store opened and materialized up front.
    let (_dir, path) = saved_store("lazy-equiv");
    let parsed = FleXPath::from_xml(XML).expect("corpus parses");
    let lazy = FleXPath::open(&path).expect("lazy open");
    let eager = FleXPath::open(&path).expect("eager open");
    eager.materialize(true).expect("every section decodes");
    assert!(eager.residency().index && !lazy.residency().document);
    for query in QUERIES {
        let (parsed_hits, parsed_fp) = run(&parsed, query);
        for (label, flex) in [("lazy", &lazy), ("eager", &eager)] {
            let (hits, fp) = run(flex, query);
            assert_eq!(hits, parsed_hits, "{label} hits diverged for {query:?}");
            assert_eq!(
                fp, parsed_fp,
                "{label} trace fingerprints diverged for {query:?}"
            );
        }
        assert!(!parsed_hits.is_empty(), "query {query:?} must match");
    }
}

#[test]
fn residency_progresses_with_what_queries_touch() {
    let (_dir, path) = saved_store("lazy-residency");
    let flex = FleXPath::open(&path).expect("lazy open");
    let r = flex.residency();
    assert!(
        !r.document && !r.stats && !r.index,
        "nothing is resident right after a lazy open"
    );

    // A structure-only query forces the document and statistics but must
    // leave the inverted index on disk.
    let hits = flex
        .query("//item[./name]")
        .expect("query parses")
        .top(10)
        .execute()
        .unwrap()
        .hits;
    assert_eq!(hits.len(), 3);
    let r = flex.residency();
    assert!(r.document && r.stats, "structural parts decoded");
    assert!(!r.index, "postings stay on disk for structure-only queries");

    // The first full-text query pulls the index in.
    let hits = flex
        .query(r#"//item[.contains("gold")]"#)
        .expect("query parses")
        .top(10)
        .execute()
        .unwrap()
        .hits;
    assert!(!hits.is_empty());
    assert!(flex.residency().index, "full-text touch decodes the index");
}

#[test]
fn open_sessions_survive_atomic_replace() {
    // The catalog replaces documents with a temp-file write + rename. A
    // session opened before the replace holds the *old* bytes (via the
    // mmap or an owned buffer — either way the unlinked inode stays alive
    // until unmapped) and must keep answering from them; a session opened
    // after sees the new document. No torn reads, no crashes.
    let scratch = ScratchDir::new("lazy-replace");
    let catalog = Catalog::open(scratch.path()).expect("catalog opens");
    let old = FleXPath::from_xml(XML).expect("corpus parses");
    let old_ctx = old.context();
    catalog
        .save(&StoreBuilder::from_parts(
            "doc",
            old_ctx.doc(),
            old_ctx.stats(),
            old_ctx.index(),
        ))
        .expect("initial save");

    let before = FleXPath::from_lazy_store(catalog.open_lazy("doc").expect("lazy open"));
    // Touch nothing yet: the replace happens while every section is
    // still undecoded, so the reader must pull old bytes afterwards.
    let new = FleXPath::from_xml("<site><item><name>pewter spoon</name></item></site>")
        .expect("replacement parses");
    let new_ctx = new.context();
    catalog
        .save(&StoreBuilder::from_parts(
            "doc",
            new_ctx.doc(),
            new_ctx.stats(),
            new_ctx.index(),
        ))
        .expect("atomic replace");

    let hits = before
        .query(r#"//item[.contains("gold")]"#)
        .expect("query parses")
        .top(10)
        .execute()
        .expect("pre-replace session reads its original bytes")
        .hits;
    assert!(!hits.is_empty(), "old corpus still answers");
    assert_eq!(
        before
            .query("//item[./name]")
            .expect("query parses")
            .top(10)
            .execute()
            .unwrap()
            .hits
            .len(),
        3,
        "old corpus still has all three items"
    );

    let after = FleXPath::from_lazy_store(catalog.open_lazy("doc").expect("reopen"));
    assert_eq!(
        after
            .query("//item[./name]")
            .expect("query parses")
            .top(10)
            .execute()
            .unwrap()
            .hits
            .len(),
        1,
        "post-replace session sees the new document"
    );
}
