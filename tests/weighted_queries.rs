//! End-to-end tests for user-specified predicate weights (`^<w>` query
//! annotations → the engine's weight assignment → penalties and ranking).

use flexpath::FleXPath;

/// Two near-miss articles, each failing a different edge: which one ranks
/// higher depends entirely on the relative weights of the two edges.
const CORPUS: &str = r#"<site>
  <article id="noAlg"><section>
    <paragraph>XML streaming text</paragraph></section></article>
  <article id="noPara"><section>
    <algorithm>a</algorithm>
    <title>XML streaming title</title></section></article>
</site>"#;

fn ranked_labels(flex: &FleXPath, query: &str) -> Vec<String> {
    let id = flex.document().unwrap().symbols().lookup("id").unwrap();
    flex.query(query)
        .unwrap()
        .top(10)
        .execute()
        .unwrap()
        .hits
        .iter()
        .map(|h| {
            flex.document()
                .unwrap()
                .attribute(h.node, id)
                .unwrap_or("?")
                .to_string()
        })
        .collect()
}

#[test]
fn weights_flip_the_ranking_between_near_misses() {
    let flex = FleXPath::from_xml(CORPUS).unwrap();
    // Heavy algorithm edge: losing the algorithm is expensive → the
    // article that kept its algorithm (noPara) must win.
    let alg_heavy = ranked_labels(
        &flex,
        "//article[./section[./algorithm^5 and ./paragraph[.contains(\"XML\" and \"streaming\")]]]",
    );
    assert_eq!(alg_heavy[0], "noPara", "{alg_heavy:?}");
    // Heavy paragraph edge: the article that kept its keyword paragraph
    // (noAlg) must win.
    let para_heavy = ranked_labels(
        &flex,
        "//article[./section[./algorithm and ./paragraph^5[.contains(\"XML\" and \"streaming\")]]]",
    );
    assert_eq!(para_heavy[0], "noAlg", "{para_heavy:?}");
}

#[test]
fn unweighted_query_is_equivalent_to_weight_one() {
    let flex = FleXPath::from_xml(CORPUS).unwrap();
    let plain = ranked_labels(
        &flex,
        "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]",
    );
    let unit = ranked_labels(
        &flex,
        "//article[./section^1[./algorithm^1 and ./paragraph^1[.contains(\"XML\" and \"streaming\")]]]",
    );
    assert_eq!(plain, unit);
}

#[test]
fn zero_weight_makes_a_predicate_free_to_drop() {
    let flex = FleXPath::from_xml(CORPUS).unwrap();
    // algorithm^0: dropping the algorithm requirement costs nothing, so
    // both articles... noAlg keeps everything that carries weight and ties
    // with an exact match score, outranking noPara (which lost the
    // weighted paragraph edge).
    let r = flex
        .query("//article[./section[./algorithm^0 and ./paragraph[.contains(\"XML\" and \"streaming\")]]]")
        .unwrap()
        .top(10)
        .execute().unwrap();
    let id = flex.document().unwrap().symbols().lookup("id").unwrap();
    assert_eq!(
        flex.document().unwrap().attribute(r.hits[0].node, id),
        Some("noAlg")
    );
    assert!(r.hits[0].score.ss > r.hits[1].score.ss);
}
