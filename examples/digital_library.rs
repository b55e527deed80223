//! Digital-library search with a **type hierarchy** (the paper's
//! Section 3.4 extension): a query for `article`s about a topic also
//! surfaces `book`s, `thesis`es and `techreport`s — at a penalty derived
//! from how much of the `publication` type each subtype covers.
//!
//! Run with: `cargo run --example digital_library`

use flexpath::{FleXPath, TagHierarchy};

const CATALOG: &str = r#"<catalog>
  <article id="a1"><title>Streaming XML engines</title>
    <section><paragraph>We survey XML streaming evaluation.</paragraph></section></article>
  <article id="a2"><title>Relational optimizers</title>
    <section><paragraph>Cost models for joins.</paragraph></section></article>
  <book id="b1"><title>XML in depth</title>
    <chapter><section><paragraph>A chapter on XML streaming and twigs.</paragraph></section></chapter></book>
  <thesis id="t1"><title>Flexible querying</title>
    <section><paragraph>Relaxation for XML streaming search.</paragraph></section></thesis>
  <techreport id="r1"><abstract>Notes on XML streaming deployments.</abstract></techreport>
  <newsletter id="n1"><section><paragraph>XML streaming gossip.</paragraph></section></newsletter>
</catalog>"#;

const QUERY: &str = "//article[./section[./paragraph[.contains(\"XML\" and \"streaming\")]]]";

fn main() {
    let flex = FleXPath::from_xml(CATALOG).expect("catalog parses");

    println!("== digital library: searching articles about XML streaming ==\n");
    println!("query: {QUERY}\n");

    // 1. Plain FleXPath: structural relaxation only — other element types
    //    can never match a tag predicate.
    let plain = flex
        .query(QUERY)
        .unwrap()
        .top(10)
        .execute()
        .expect("query runs");
    println!("without a type hierarchy ({} answers):", plain.hits.len());
    print_hits(&flex, &plain);

    // 2. With the publication hierarchy, sibling subtypes become
    //    penalized matches; the newsletter stays out (not a publication).
    let mut hierarchy = TagHierarchy::new();
    hierarchy.add_type("publication", &["article", "book", "thesis", "techreport"]);
    let with = flex
        .query(QUERY)
        .unwrap()
        .top(10)
        .hierarchy(hierarchy)
        .execute()
        .expect("query runs");
    println!(
        "\nwith article ⊑ publication ⊒ {{book, thesis, techreport}} ({} answers):",
        with.hits.len()
    );
    print_hits(&flex, &with);

    println!(
        "\nnote: the newsletter also mentions the keywords but is not a\n\
         publication subtype, so no relaxation ever admits it."
    );
}

fn print_hits(flex: &FleXPath, results: &flexpath::QueryResults) {
    let doc = flex.document().expect("document reads");
    let id = doc.symbols().lookup("id").unwrap();
    for hit in &results.hits {
        println!(
            "  [{}] <{}> ss={:.3} ks={:.3} level={}",
            doc.attribute(hit.node, id).unwrap_or("?"),
            doc.tag_name(hit.node).unwrap_or("?"),
            hit.score.ss,
            hit.score.ks,
            hit.relaxation_level
        );
    }
}
