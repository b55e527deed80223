//! Round-trip property: a session restored with [`FleXPath::open`] must be
//! observationally identical to the freshly built session it was saved
//! from — same top-K nodes, same scores, same trace counter fingerprints —
//! across every algorithm and every ranking scheme.

use flexpath::{Algorithm, FleXPath, RankingScheme};
use flexpath_reference::ScratchDir;
use flexpath_xmark::{generate, XmarkConfig};

const QUERY: &str = "//item[./description/parlist and ./mailbox/mail/text]";

const ALGORITHMS: [Algorithm; 3] = [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid];
const SCHEMES: [RankingScheme; 3] = [
    RankingScheme::StructureFirst,
    RankingScheme::KeywordFirst,
    RankingScheme::Combined,
];

/// `(nodes, scores-debug, fingerprint)` of one run — everything a caller
/// can observe about the ranking.
fn observe(
    flex: &FleXPath,
    algorithm: Algorithm,
    scheme: RankingScheme,
) -> (Vec<flexpath::NodeId>, String, String) {
    let r = flex
        .query(QUERY)
        .expect("query parses")
        .top(25)
        .algorithm(algorithm)
        .scheme(scheme)
        .trace()
        .execute()
        .unwrap();
    let nodes = r.hits.iter().map(|h| h.node).collect();
    let scores = format!("{:?}", r.hits.iter().map(|h| h.score).collect::<Vec<_>>());
    let fingerprint = r.trace.expect("trace requested").counter_fingerprint();
    (nodes, scores, fingerprint)
}

#[test]
fn saved_and_loaded_sessions_are_observationally_identical() {
    for (i, bytes) in [48 * 1024usize, 192 * 1024, 512 * 1024].iter().enumerate() {
        let built = FleXPath::new(generate(&XmarkConfig::sized(*bytes, 1)));
        let dir = ScratchDir::new("roundtrip-size");
        let path = dir.path().join(format!("size-{i}.fxs"));
        built.save(&path, "roundtrip").expect("store saves");
        let loaded = FleXPath::open(&path).expect("store opens");
        assert!(loaded.store_trace().is_some(), "load span must be exposed");

        for algorithm in ALGORITHMS {
            for scheme in SCHEMES {
                let a = observe(&built, algorithm, scheme);
                let b = observe(&loaded, algorithm, scheme);
                assert!(
                    !a.0.is_empty(),
                    "workload must produce answers ({bytes} B, {algorithm:?})"
                );
                assert_eq!(
                    a, b,
                    "restored session diverged: {bytes} B, {algorithm:?}, {scheme:?}"
                );
            }
        }
    }
}

#[test]
fn save_is_deterministic_across_sessions() {
    // Two independent builds of the same corpus must serialize to the very
    // same bytes — the property the golden-file drift check relies on.
    let doc = || generate(&XmarkConfig::sized(64 * 1024, 7));
    let dir = ScratchDir::new("roundtrip-det");
    let p1 = dir.path().join("det-1.fxs");
    let p2 = dir.path().join("det-2.fxs");
    FleXPath::new(doc()).save(&p1, "same").expect("save 1");
    FleXPath::new(doc()).save(&p2, "same").expect("save 2");
    let b1 = std::fs::read(&p1).expect("read 1");
    let b2 = std::fs::read(&p2).expect("read 2");
    assert_eq!(b1, b2, "store serialization must be deterministic");
}
