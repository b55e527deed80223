//! Interactive-ish tour of the relaxation theory: logical form, closure,
//! core, the operator-generated relaxation space, and the penalty-ordered
//! schedule for a query of your choice.
//!
//! Run with:
//! `cargo run --example relaxation_explorer -- '<xpath>' [corpus.xml]`
//! (defaults to the paper's Q1 over a built-in collection).

use flexpath::FleXPath;
use flexpath_engine::{build_schedule, PenaltyModel, WeightAssignment};
use flexpath_reference::enumerate_space;
use flexpath_tpq::{core_of, parse_query, tpq_from_predicates};

const DEFAULT_QUERY: &str =
    "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]";

const DEFAULT_CORPUS: &str = r#"<collection>
  <article><section><algorithm>a</algorithm>
    <paragraph>XML streaming methods</paragraph></section></article>
  <article><section><part><paragraph>XML streaming in parts</paragraph></part>
    </section><algorithm>b</algorithm></article>
  <article><summary>XML streaming summary</summary></article>
</collection>"#;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let query_str = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| DEFAULT_QUERY.to_string());
    let corpus = match args.get(2) {
        Some(path) => std::fs::read_to_string(path).expect("corpus file readable"),
        None => DEFAULT_CORPUS.to_string(),
    };

    let q = parse_query(&query_str).expect("query parses");
    println!("query        : {}", q.to_xpath());
    println!("distinguished: {}", q.distinguished_var());

    println!("\n— logical expression (Figure 2 style) —");
    for p in q.logical().iter() {
        println!("  {p}");
    }

    println!("\n— closure under the inference rules (Figure 4 style) —");
    let closure = q.closure();
    for p in closure.iter() {
        let derived = !q.logical().contains(p);
        println!("  {p}{}", if derived { "   [derived]" } else { "" });
    }

    println!("\n— core (unique minimal equivalent, Theorem 1) —");
    let core = q.core();
    for p in core.iter() {
        println!("  {p}");
    }
    let rebuilt = tpq_from_predicates(&core_of(&closure), q.distinguished_var())
        .expect("core reconstructs to a TPQ");
    println!("  reconstructs to: {}", rebuilt.to_xpath());

    println!("\n— relaxation space (operators γ, λ, σ, κ; deduplicated) —");
    let space = enumerate_space(&q, 500);
    println!(
        "  {} distinct relaxations{}",
        space.len(),
        if space.truncated {
            " (truncated at 500)"
        } else {
            ""
        }
    );
    for e in space.entries.iter().take(12) {
        let ops: Vec<String> = e.ops.iter().map(|o| o.to_string()).collect();
        println!(
            "  [{}] {}",
            if ops.is_empty() {
                "original".to_string()
            } else {
                ops.join(" ∘ ")
            },
            e.tpq.to_xpath()
        );
    }
    if space.len() > 12 {
        println!("  … and {} more", space.len() - 12);
    }

    println!("\n— penalty-ordered schedule against the corpus —");
    let flex = FleXPath::from_xml(&corpus).expect("corpus parses");
    let model = PenaltyModel::new(&q, WeightAssignment::uniform());
    let schedule = build_schedule(flex.context(), &model, &q, 32);
    println!(
        "  base structural score: {:.3}",
        model.base_structural_score(&q)
    );
    for (i, s) in schedule.iter().enumerate() {
        println!(
            "  {:>2}. {}  penalty {:.3} → answers score {:.3}",
            i + 1,
            s.op,
            s.step_penalty,
            s.ss_after
        );
    }

    println!("\n— and the ranked answers —");
    let results = flex
        .query(&query_str)
        .unwrap()
        .top(10)
        .execute()
        .expect("query runs");
    for (i, hit) in results.hits.iter().enumerate() {
        println!(
            "  #{:<2} {} ss={:.3} ks={:.3} level={}",
            i + 1,
            flex.snippet(hit.node, 48),
            hit.score.ss,
            hit.score.ks,
            hit.relaxation_level
        );
    }
}
