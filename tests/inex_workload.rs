//! End-to-end validation on the paper's *motivating* workload: an
//! INEX-style article collection with a controlled mix of Figure-1
//! scenarios. Because the generator labels each article with its scenario,
//! we can check the core claim of the paper exactly: FleXPath's ranking
//! recovers every near-miss class, in structural-fidelity order, without
//! admitting off-topic articles.

use flexpath::{Algorithm, FleXPath, NodeId};
use flexpath_xmark::{generate_articles, ArticlesConfig, Scenario};
use std::collections::HashMap;

const Q1: &str =
    "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]";

/// Builds the corpus and a map from answer node to its known scenario.
fn corpus(seed: u64) -> (FleXPath, HashMap<NodeId, Option<Scenario>>) {
    let cfg = ArticlesConfig {
        articles: 200,
        seed,
        topic_fraction: 0.4,
        ..Default::default()
    };
    let (doc, scenarios) = generate_articles(&cfg);
    let articles: Vec<NodeId> = doc.nodes_with_tag_name("article").to_vec();
    let map = articles
        .into_iter()
        .zip(scenarios)
        .collect::<HashMap<_, _>>();
    (FleXPath::new(doc), map)
}

#[test]
fn strict_interpretation_finds_only_exact_articles() {
    let (flex, scenarios) = corpus(11);
    let r = flex
        .query(Q1)
        .unwrap()
        .top(10_000)
        .max_relaxations(0)
        .execute()
        .unwrap();
    assert!(!r.hits.is_empty());
    for h in &r.hits {
        assert_eq!(
            scenarios[&h.node],
            Some(Scenario::Exact),
            "strict Q1 must only return Exact articles"
        );
    }
}

#[test]
fn flexible_interpretation_recovers_every_scenario_class() {
    let (flex, scenarios) = corpus(12);
    let r = flex.query(Q1).unwrap().top(10_000).execute().unwrap();
    let mut found: Vec<Scenario> = Vec::new();
    for h in &r.hits {
        if let Some(s) = scenarios[&h.node] {
            if !found.contains(&s) {
                found.push(s);
            }
        }
    }
    for expected in [
        Scenario::Exact,
        Scenario::TitleKeywords,
        Scenario::AlgorithmOutside,
        Scenario::NoAlgorithm,
        Scenario::KeywordsAnywhere,
    ] {
        assert!(found.contains(&expected), "missing {expected:?} in results");
    }
    // Off-topic articles never appear: they lack the keywords entirely.
    for h in &r.hits {
        assert!(
            scenarios[&h.node].is_some(),
            "off-topic article leaked into the results"
        );
    }
}

#[test]
fn scenario_classes_rank_in_structural_fidelity_order() {
    let (flex, scenarios) = corpus(13);
    let r = flex.query(Q1).unwrap().top(10_000).execute().unwrap();
    // Mean rank position per scenario.
    let mut sums: HashMap<Scenario, (usize, usize)> = HashMap::new();
    for (rank, h) in r.hits.iter().enumerate() {
        if let Some(s) = scenarios[&h.node] {
            let e = sums.entry(s).or_insert((0, 0));
            e.0 += rank;
            e.1 += 1;
        }
    }
    let mean = |s: Scenario| {
        let (sum, n) = sums[&s];
        sum as f64 / n as f64
    };
    // Exact articles rank best; keywords-anywhere articles rank worst.
    assert!(mean(Scenario::Exact) < mean(Scenario::TitleKeywords));
    assert!(mean(Scenario::Exact) < mean(Scenario::AlgorithmOutside));
    assert!(mean(Scenario::TitleKeywords) < mean(Scenario::KeywordsAnywhere));
    assert!(mean(Scenario::AlgorithmOutside) < mean(Scenario::KeywordsAnywhere));
    assert!(mean(Scenario::NoAlgorithm) < mean(Scenario::KeywordsAnywhere));
    // And every exact article scores the maximal structural score.
    let best = r.hits[0].score.ss;
    for h in &r.hits {
        if scenarios[&h.node] == Some(Scenario::Exact) {
            assert!((h.score.ss - best).abs() < 1e-9);
        }
    }
}

#[test]
fn precision_at_k_improves_with_structure() {
    // The paper's Section 1 argument, quantified: with K = #exact articles,
    // the structure-aware ranking's precision for Exact articles is perfect,
    // while a purely keyword-based query (Q6) cannot separate the classes.
    let (flex, scenarios) = corpus(14);
    let exact_count = scenarios
        .values()
        .filter(|s| **s == Some(Scenario::Exact))
        .count();
    assert!(exact_count > 3);

    let structured = flex.query(Q1).unwrap().top(exact_count).execute().unwrap();
    let hits_exact = structured
        .hits
        .iter()
        .filter(|h| scenarios[&h.node] == Some(Scenario::Exact))
        .count();
    assert_eq!(
        hits_exact, exact_count,
        "structure-first top-K must be exactly the Exact class"
    );

    let keyword_only = flex
        .query("//article[.contains(\"XML\" and \"streaming\")]")
        .unwrap()
        .top(exact_count)
        .execute()
        .unwrap();
    let keyword_exact = keyword_only
        .hits
        .iter()
        .filter(|h| scenarios[&h.node] == Some(Scenario::Exact))
        .count();
    assert!(
        keyword_exact < exact_count,
        "pure keyword search should not isolate the Exact class"
    );
}

#[test]
fn algorithms_agree_on_the_article_workload() {
    let (flex, _) = corpus(15);
    for k in [10, 40] {
        let s = flex
            .query(Q1)
            .unwrap()
            .top(k)
            .algorithm(Algorithm::Sso)
            .execute()
            .unwrap();
        let h = flex
            .query(Q1)
            .unwrap()
            .top(k)
            .algorithm(Algorithm::Hybrid)
            .execute()
            .unwrap();
        assert_eq!(s.nodes(), h.nodes(), "k={k}");
    }
}
