//! Quickstart: index a small corpus, run one flexible query, print ranked
//! answers with explanations.
//!
//! Run with: `cargo run --example quickstart`

use flexpath::{explain_answer, explain_schedule, parse_query, FleXPath};

const CORPUS: &str = r#"<library>
  <article id="icde02"><title>Structural joins for XML</title>
    <section><algorithm>stack-tree</algorithm>
      <paragraph>Evaluating XML streaming queries with structural joins.</paragraph>
    </section></article>
  <article id="vldb03"><title>Streams and trees</title>
    <section><title>XML streaming background</title>
      <algorithm>twig</algorithm>
      <paragraph>We revisit twig joins over trees.</paragraph>
    </section></article>
  <article id="tods04"><title>Query relaxation</title>
    <section><paragraph>Approximate matching over XML streaming data.</paragraph></section>
    <appendix><algorithm>relax</algorithm></appendix></article>
  <article id="misc"><abstract>A survey mentioning XML streaming systems.</abstract></article>
  <article id="off-topic"><section><paragraph>Relational query optimization.</paragraph></section></article>
</library>"#;

const QUERY: &str =
    "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]";

fn main() {
    let flex = FleXPath::from_xml(CORPUS).expect("corpus is well-formed");

    println!("== FleXPath quickstart ==\n");
    println!("query: {QUERY}\n");

    // A strict XPath engine would return exactly one article. FleXPath
    // treats the structure as a template and ranks near-misses below it.
    let results = flex
        .query(QUERY)
        .expect("query parses")
        .top(4)
        .execute()
        .expect("query runs");

    println!(
        "{} answers (algorithm: {}, {} relaxation steps encoded)\n",
        results.hits.len(),
        results.algorithm,
        results.stats.relaxations_used
    );
    let doc = flex.document().expect("document reads");
    let id = doc.symbols().lookup("id").unwrap();
    for (rank, hit) in results.hits.iter().enumerate() {
        let label = doc.attribute(hit.node, id).unwrap_or("?");
        println!(
            "#{:<2} [{}] {}",
            rank + 1,
            label,
            explain_answer(flex.context(), hit)
        );
        println!("     {}", flex.snippet(hit.node, 72));
    }

    println!("\n== why those ranks: the relaxation schedule ==\n");
    let q = parse_query(QUERY).unwrap();
    print!("{}", explain_schedule(flex.context(), &q, 12));
}
