//! The paper's running example (Section 1 / Figure 1): querying a
//! bibliographic collection for articles about algorithms on streaming XML
//! data, and watching queries Q1–Q6 emerge as relaxations of Q1.
//!
//! Run with: `cargo run --example bibliographic`

use flexpath::FleXPath;
use flexpath_reference::{contains_query, enumerate_space};
use flexpath_tpq::parse_query;

/// Figure 1's six queries, as XPath strings.
const FIGURE_1: [(&str, &str); 6] = [
    (
        "Q1",
        "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]",
    ),
    (
        "Q2",
        "//article[./section[./algorithm and ./paragraph and .contains(\"XML\" and \"streaming\")]]",
    ),
    (
        "Q3",
        "//article[.//algorithm and ./section[./paragraph[.contains(\"XML\" and \"streaming\")]]]",
    ),
    (
        "Q4",
        "//article[.//algorithm and ./section[./paragraph and .contains(\"XML\" and \"streaming\")]]",
    ),
    (
        "Q5",
        "//article[./section[./paragraph and .contains(\"XML\" and \"streaming\")]]",
    ),
    ("Q6", "//article[.contains(\"XML\" and \"streaming\")]"),
];

/// A small INEX/SIGMOD-Record-flavoured collection exercising every query.
const COLLECTION: &str = r#"<collection>
  <article id="A"><section>
      <algorithm>one-pass evaluator</algorithm>
      <paragraph>A new algorithm for XML streaming evaluation.</paragraph>
  </section></article>
  <article id="B"><section>
      <title>XML streaming</title>
      <algorithm>filter network</algorithm>
      <paragraph>Details of the automaton construction.</paragraph>
  </section></article>
  <article id="C">
      <section><paragraph>Benchmarks over XML streaming workloads.</paragraph></section>
      <appendix><algorithm>benchmark driver</algorithm></appendix>
  </article>
  <article id="D"><section>
      <paragraph>Processing XML streaming queries without algorithms.</paragraph>
  </section></article>
  <article id="E"><related>A survey of XML streaming research.</related></article>
  <article id="F"><section><paragraph>Nothing relevant here.</paragraph></section></article>
</collection>"#;

fn main() {
    println!("== FleXPath on the paper's Figure 1 ==\n");

    // 1. The containment lattice of Figure 1, verified mechanically.
    let queries: Vec<(&str, flexpath::Tpq)> = FIGURE_1
        .iter()
        .map(|(name, s)| (*name, parse_query(s).expect("figure-1 query parses")))
        .collect();
    println!("containment lattice (Qi ⊆ Qj checked by homomorphism):");
    for (ni, qi) in &queries {
        let supersets: Vec<&str> = queries
            .iter()
            .filter(|(nj, qj)| nj != ni && contains_query(qi, qj))
            .map(|(nj, _)| *nj)
            .collect();
        println!("  {ni} ⊆ {{{}}}", supersets.join(", "));
    }

    // 2. The relaxation space of Q1 contains all of Q2–Q6.
    let q1 = &queries[0].1;
    let space = enumerate_space(q1, 10_000);
    println!(
        "\nrelaxation space of Q1: {} distinct queries (operators γ, λ, σ, κ)",
        space.len()
    );
    for (name, q) in &queries[1..] {
        let found = space
            .entries
            .iter()
            .any(|e| contains_query(&e.tpq, q) && contains_query(q, &e.tpq));
        println!(
            "  {name} reachable from Q1: {}",
            if found { "yes" } else { "no" }
        );
    }

    // 3. Run Q1 flexibly: every on-topic article surfaces, ranked.
    let flex = FleXPath::from_xml(COLLECTION).unwrap();
    let results = flex
        .query(FIGURE_1[0].1)
        .unwrap()
        .top(6)
        .execute()
        .expect("query runs");
    println!("\ntop answers for Q1 as a template:");
    let doc = flex.document().expect("document reads");
    let id = doc.symbols().lookup("id").unwrap();
    for hit in &results.hits {
        println!(
            "  article {}  ss={:.3} ks={:.3} (level {})",
            doc.attribute(hit.node, id).unwrap_or("?"),
            hit.score.ss,
            hit.score.ks,
            hit.relaxation_level
        );
    }
    println!(
        "\nnote: a strict XPath engine returns only article A; FleXPath also\n\
         surfaces B (keywords in the section title), C (algorithm outside the\n\
         section), D (no algorithm at all), and E (keywords anywhere) — in\n\
         exactly the order Figure 1's lattice predicts."
    );
}
