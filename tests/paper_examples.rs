//! Integration tests reproducing the paper's worked examples end-to-end:
//! Figure 1's query lattice, Example 1's score computation, and the
//! Section 1 narrative ("a strict interpretation of Q1 would miss …").

use flexpath::{Algorithm, FleXPath, RankingScheme};
use flexpath_engine::{build_schedule, PenaltyModel, WeightAssignment};
use flexpath_reference::contains_query;
use flexpath_tpq::{parse_query, Predicate, Var};

const Q1: &str =
    "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]";
const Q2: &str =
    "//article[./section[./algorithm and ./paragraph and .contains(\"XML\" and \"streaming\")]]";
const Q3: &str =
    "//article[.//algorithm and ./section[./paragraph[.contains(\"XML\" and \"streaming\")]]]";
const Q4: &str =
    "//article[.//algorithm and ./section[./paragraph and .contains(\"XML\" and \"streaming\")]]";
const Q5: &str = "//article[./section[./paragraph and .contains(\"XML\" and \"streaming\")]]";
const Q6: &str = "//article[.contains(\"XML\" and \"streaming\")]";

/// One article per "miss scenario" described in Section 1.
const COLLECTION: &str = r#"<collection>
  <article id="exactQ1"><section>
    <algorithm>alg</algorithm>
    <paragraph>an XML streaming method</paragraph></section></article>
  <article id="titleKeywords"><section>
    <title>XML streaming</title>
    <algorithm>alg</algorithm>
    <paragraph>unrelated text</paragraph></section></article>
  <article id="algOutside"><section>
    <paragraph>more XML streaming text</paragraph></section>
    <algorithm>alg</algorithm></article>
  <article id="noAlgorithm"><section>
    <paragraph>pure XML streaming survey</paragraph></section></article>
  <article id="keywordsAnywhere"><aside>XML streaming aside</aside></article>
  <article id="irrelevant"><section><algorithm>alg</algorithm>
    <paragraph>databases</paragraph></section></article>
</collection>"#;

fn label(flex: &FleXPath, node: flexpath::NodeId) -> String {
    let id = flex.document().unwrap().symbols().lookup("id").unwrap();
    flex.document()
        .unwrap()
        .attribute(node, id)
        .unwrap_or("?")
        .to_string()
}

#[test]
fn figure_1_lattice_is_exactly_as_printed() {
    let qs: Vec<_> = [Q1, Q2, Q3, Q4, Q5, Q6]
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
    // Q1 ⊂ Q2, Q1 ⊂ Q3, Q2 ⊂ Q4, Q3 ⊂ Q4, Q4 ⊂ Q5, Q5 ⊂ Q6.
    let expected = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)];
    for (a, b) in expected {
        assert!(contains_query(&qs[a], &qs[b]), "Q{} ⊆ Q{}", a + 1, b + 1);
        assert!(!contains_query(&qs[b], &qs[a]), "Q{} ⊄ Q{}", b + 1, a + 1);
    }
}

#[test]
fn strict_q1_misses_what_flexpath_recovers() {
    let flex = FleXPath::from_xml(COLLECTION).unwrap();
    // Strict interpretation: only the exact article answers.
    let strict = flex.query(Q1).unwrap().top(1).execute().unwrap();
    assert_eq!(label(&flex, strict.hits[0].node), "exactQ1");
    assert_eq!(strict.hits[0].relaxation_level, 0);

    // Flexible interpretation: the Section 1 scenarios appear, correctly
    // ordered by structural fidelity, and the off-topic article never does.
    let flexed = flex.query(Q1).unwrap().top(10).execute().unwrap();
    let labels: Vec<String> = flexed.hits.iter().map(|h| label(&flex, h.node)).collect();
    assert_eq!(
        labels.len(),
        5,
        "irrelevant article must not appear: {labels:?}"
    );
    assert_eq!(labels[0], "exactQ1");
    assert!(!labels.contains(&"irrelevant".to_string()));
    // The title-keywords article (Q2's catch) outranks the structure-poor
    // keywords-anywhere article (Q6's catch).
    let pos = |l: &str| labels.iter().position(|x| x == l).unwrap();
    assert!(pos("titleKeywords") < pos("keywordsAnywhere"));
    assert!(pos("algOutside") < pos("keywordsAnywhere"));
    // Scores decrease monotonically.
    for w in flexed.hits.windows(2) {
        assert!(w[0].score.ss >= w[1].score.ss - 1e-12);
    }
}

#[test]
fn each_figure_1_query_answers_its_scenario_exactly() {
    let flex = FleXPath::from_xml(COLLECTION).unwrap();
    // (query, article that becomes newly visible under its *strict* form)
    let cases = [
        (Q2, "titleKeywords"),
        (Q3, "algOutside"),
        (Q5, "noAlgorithm"),
        (Q6, "keywordsAnywhere"),
    ];
    for (q, newly_visible) in cases {
        let r = flex
            .query(q)
            .unwrap()
            .top(10)
            .max_relaxations(0)
            .execute()
            .unwrap();
        let labels: Vec<String> = r.hits.iter().map(|h| label(&flex, h.node)).collect();
        assert!(
            labels.contains(&newly_visible.to_string()),
            "{q} should catch {newly_visible}, got {labels:?}"
        );
        assert!(
            labels.contains(&"exactQ1".to_string()),
            "{q} contains Q1's answers"
        );
    }
}

#[test]
fn example_1_score_arithmetic() {
    // Example 1: with uniform unit weights, the structural score of an
    // answer to Q1 is 3; Q5's answers score 3 minus the penalties of the
    // four dropped predicates.
    let flex = FleXPath::from_xml(COLLECTION).unwrap();
    let q1 = parse_query(Q1).unwrap();
    let model = PenaltyModel::new(&q1, WeightAssignment::uniform());
    assert_eq!(model.base_structural_score(&q1), 3.0);

    let e = flexpath::FtExpr::all_of(&["XML", "streaming"]);
    let dropped = [
        Predicate::Pc(Var(2), Var(3)),
        Predicate::Ad(Var(2), Var(3)),
        Predicate::Ad(Var(1), Var(3)),
        Predicate::Contains(Var(4), e),
    ];
    let penalty = model.total_penalty(flex.context(), dropped.iter());
    assert!(penalty > 0.0);
    // Every component is within its unit weight.
    for p in &dropped {
        let pi = model.penalty(flex.context(), p, &flexpath::Budget::unlimited());
        assert!((0.0..=1.0).contains(&pi), "π({p}) = {pi}");
    }
    // The noAlgorithm article is a Q5-but-not-Q4 answer: its reported score
    // must equal base − (sum of penalties of exactly the predicates it
    // fails), which is ≥ the Example-1 lower bound 3 − Σπ.
    let r = flex.query(Q1).unwrap().top(10).execute().unwrap();
    let no_alg = r
        .hits
        .iter()
        .find(|h| label(&flex, h.node) == "noAlgorithm")
        .expect("noAlgorithm article is an answer");
    assert!(no_alg.score.ss >= 3.0 - penalty - 1e-9);
    assert!(no_alg.score.ss < 3.0);
}

#[test]
fn schedule_reproduces_paper_operator_names() {
    let flex = FleXPath::from_xml(COLLECTION).unwrap();
    let q1 = parse_query(Q1).unwrap();
    let model = PenaltyModel::new(&q1, WeightAssignment::uniform());
    let schedule = build_schedule(flex.context(), &model, &q1, 64);
    assert!(!schedule.is_empty());
    // The schedule must include at least one of each operator family for
    // this query (it has pc-edges, a deletable leaf, a promotable subtree,
    // and a contains predicate).
    let shown: String = schedule.iter().map(|s| s.op.to_string()).collect();
    for glyph in ["γ", "λ", "σ", "κ"] {
        assert!(shown.contains(glyph), "missing {glyph} in {shown}");
    }
}

#[test]
fn all_algorithms_and_schemes_agree_on_the_collection() {
    let flex = FleXPath::from_xml(COLLECTION).unwrap();
    for scheme in [
        RankingScheme::StructureFirst,
        RankingScheme::KeywordFirst,
        RankingScheme::Combined,
    ] {
        let mut per_alg = Vec::new();
        for alg in [Algorithm::Dpo, Algorithm::Sso, Algorithm::Hybrid] {
            let r = flex
                .query(Q1)
                .unwrap()
                .top(5)
                .scheme(scheme)
                .algorithm(alg)
                .execute()
                .unwrap();
            let mut nodes = r.nodes();
            nodes.sort();
            per_alg.push(nodes);
        }
        assert_eq!(per_alg[1], per_alg[2], "SSO vs Hybrid under {scheme:?}");
        assert_eq!(per_alg[0], per_alg[1], "DPO vs SSO under {scheme:?}");
    }
}
