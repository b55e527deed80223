//! End-to-end smoke test for the persistent store, runnable from CI:
//! generate a ~1 MB XMark-style corpus, index it into a store, reload it,
//! and assert the reloaded session answers a query with byte-identical
//! nodes, scores, and trace counter fingerprints. Exits non-zero (panics)
//! on any divergence.
//!
//! Side effect: leaves `target/smoke/doc.xml` and `target/smoke/store/`
//! behind so a CI job can re-drive the same corpus through the real
//! `flexpath-cli index` / `--store` code path.

use flexpath::{Algorithm, FleXPath};
use flexpath_xmark::{generate, XmarkConfig};
use std::path::Path;

const QUERY: &str = "//item[./description/parlist and ./mailbox/mail/text]";

fn main() {
    let dir = Path::new("target/smoke");
    std::fs::create_dir_all(dir).expect("create target/smoke");

    // 1 MB corpus, fixed seed: deterministic across runs and machines.
    let doc = generate(&XmarkConfig::sized(1 << 20, 1));
    let xml = flexpath_xmldom::to_xml_string(&doc);
    std::fs::write(dir.join("doc.xml"), &xml).expect("write doc.xml");

    // In-memory reference: parse + stats + index.
    let built = FleXPath::from_xml(&xml).expect("corpus parses");

    // Store round trip.
    let store_path = dir.join("store").join("doc.fxs");
    let bytes = built.save(&store_path, "doc").expect("store saves");
    let loaded = FleXPath::open(&store_path).expect("store opens");

    let observe = |flex: &FleXPath, alg: Algorithm| {
        let r = flex
            .query(QUERY)
            .expect("query parses")
            .top(10)
            .algorithm(alg)
            .trace()
            .execute()
            .expect("query runs");
        let nodes: Vec<_> = r.hits.iter().map(|h| h.node).collect();
        let scores = format!("{:?}", r.hits.iter().map(|h| h.score).collect::<Vec<_>>());
        let fp = r.trace.expect("trace requested").counter_fingerprint();
        (nodes, scores, fp)
    };

    for alg in [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid] {
        let a = observe(&built, alg);
        let b = observe(&loaded, alg);
        assert!(!a.0.is_empty(), "{alg:?}: smoke query must have answers");
        assert_eq!(a, b, "{alg:?}: store-loaded session diverged from build");
        println!(
            "{alg:?}: {} answers, fingerprints match ({}…)",
            a.0.len(),
            &a.2[..a.2.len().min(16)]
        );
    }
    println!(
        "store smoke OK: {bytes} B store at {}, xml at {}",
        store_path.display(),
        dir.join("doc.xml").display()
    );
}
