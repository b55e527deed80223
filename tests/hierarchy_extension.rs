//! Integration tests for the Section 3.4 extension: tag relaxation through
//! a type hierarchy. The paper's own example: "replace `$1.tag = article`
//! with `$1.tag = publication` if the type hierarchy says article is a
//! subtype of publication".

use flexpath::{Algorithm, FleXPath, TagHierarchy};

const LIBRARY: &str = r#"<library>
  <article id="art"><section><paragraph>XML streaming survey</paragraph></section></article>
  <book id="bk"><section><paragraph>XML streaming chapter</paragraph></section></book>
  <thesis id="th"><section><paragraph>XML streaming dissertation</paragraph></section></thesis>
  <advert id="ad"><section><paragraph>XML streaming gadget</paragraph></section></advert>
</library>"#;

const QUERY: &str = "//article[./section/paragraph[.contains(\"XML\" and \"streaming\")]]";

fn publication_hierarchy() -> TagHierarchy {
    let mut h = TagHierarchy::new();
    h.add_type("publication", &["article", "book", "thesis"]);
    h
}

fn label(flex: &FleXPath, node: flexpath::NodeId) -> String {
    let id = flex.document().unwrap().symbols().lookup("id").unwrap();
    flex.document()
        .unwrap()
        .attribute(node, id)
        .unwrap_or("?")
        .to_string()
}

#[test]
fn without_hierarchy_only_articles_answer() {
    let flex = FleXPath::from_xml(LIBRARY).unwrap();
    let r = flex.query(QUERY).unwrap().top(10).execute().unwrap();
    let labels: Vec<String> = r.hits.iter().map(|h| label(&flex, h.node)).collect();
    assert_eq!(labels, ["art"]);
}

#[test]
fn hierarchy_admits_sibling_subtypes_with_lower_scores() {
    let flex = FleXPath::from_xml(LIBRARY).unwrap();
    let r = flex
        .query(QUERY)
        .unwrap()
        .top(10)
        .hierarchy(publication_hierarchy())
        .execute()
        .unwrap();
    let labels: Vec<String> = r.hits.iter().map(|h| label(&flex, h.node)).collect();
    // The exact article first; book and thesis admitted via the hierarchy;
    // advert is not a publication and stays excluded.
    assert_eq!(labels.len(), 3, "{labels:?}");
    assert_eq!(labels[0], "art");
    assert!(labels.contains(&"bk".to_string()));
    assert!(labels.contains(&"th".to_string()));
    assert!(!labels.contains(&"ad".to_string()));
    // The exact tag match outranks the relaxed ones.
    assert!(r.hits[0].score.ss > r.hits[1].score.ss);
    assert!((r.hits[1].score.ss - r.hits[2].score.ss).abs() < 1e-9);
}

#[test]
fn hierarchy_penalty_reflects_subtype_dominance() {
    // 3 articles, 1 book: relaxing "article" gains little (penalty high);
    // relaxing "book" opens a much larger set (penalty low). The relaxed
    // answers' scores must order accordingly.
    let xml = r#"<lib>
      <article><p>gold</p></article>
      <article><p>x</p></article>
      <article><p>y</p></article>
      <book><p>gold</p></book>
    </lib>"#;
    let flex = FleXPath::from_xml(xml).unwrap();
    let mut h = TagHierarchy::new();
    h.add_type("publication", &["article", "book"]);

    // Query for articles containing gold: the book is a relaxed answer with
    // penalty #(article)/#(publication members) = 3/4.
    let r = flex
        .query("//article[.contains(\"gold\")]")
        .unwrap()
        .top(5)
        .hierarchy(h.clone())
        .execute()
        .unwrap();
    assert_eq!(r.hits.len(), 2);
    let relaxed = &r.hits[1];
    assert!(
        (r.hits[0].score.ss - relaxed.score.ss - 0.75).abs() < 1e-9,
        "expected penalty 3/4, got {}",
        r.hits[0].score.ss - relaxed.score.ss
    );

    // Query for books containing gold: the article relaxation costs only
    // #(book)/#(members) = 1/4.
    let r = flex
        .query("//book[.contains(\"gold\")]")
        .unwrap()
        .top(5)
        .hierarchy(h)
        .execute()
        .unwrap();
    assert_eq!(r.hits.len(), 2);
    assert!((r.hits[0].score.ss - r.hits[1].score.ss - 0.25).abs() < 1e-9);
}

#[test]
fn hierarchy_composes_with_structural_relaxation() {
    let xml = r#"<lib>
      <article><section><paragraph>gold coin</paragraph></section></article>
      <book><wrapper><section><paragraph>gold coin</paragraph></section></wrapper></book>
      <note>gold coin</note>
    </lib>"#;
    let flex = FleXPath::from_xml(xml).unwrap();
    let mut h = TagHierarchy::new();
    h.add_type("publication", &["article", "book"]);
    let r = flex
        .query("//article[./section[./paragraph[.contains(\"gold\")]]]")
        .unwrap()
        .top(5)
        .hierarchy(h)
        .execute()
        .unwrap();
    let tags: Vec<&str> = r
        .hits
        .iter()
        .filter_map(|hit| flex.document().unwrap().tag_name(hit.node))
        .collect();
    // Article exact, book via hierarchy + axis relaxation; the note is not
    // a publication and never matches.
    assert!(tags.contains(&"article"));
    assert!(tags.contains(&"book"));
    assert!(!tags.contains(&"note"));
    assert_eq!(tags[0], "article", "exact match must rank first");
}

#[test]
fn all_algorithms_support_the_hierarchy() {
    let flex = FleXPath::from_xml(LIBRARY).unwrap();
    let mut expected: Option<Vec<flexpath::NodeId>> = None;
    for alg in [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid] {
        let r = flex
            .query(QUERY)
            .unwrap()
            .top(10)
            .algorithm(alg)
            .hierarchy(publication_hierarchy())
            .execute()
            .unwrap();
        let mut nodes = r.nodes();
        nodes.sort();
        match &expected {
            None => expected = Some(nodes),
            Some(e) => assert_eq!(&nodes, e, "{alg} disagrees"),
        }
    }
}

#[test]
fn hierarchy_answers_do_not_claim_exact_tag_bits() {
    let flex = FleXPath::from_xml(LIBRARY).unwrap();
    let r = flex
        .query(QUERY)
        .unwrap()
        .top(10)
        .hierarchy(publication_hierarchy())
        .execute()
        .unwrap();
    let exact = &r.hits[0];
    let relaxed = &r.hits[1];
    // The relaxed answer fails at least one bit the exact one satisfies.
    assert_ne!(exact.satisfied & !relaxed.satisfied, 0);
}
