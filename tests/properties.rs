//! Randomized (seeded, deterministic) tests over random documents and
//! random queries: the empirical side of Theorems 2 and 3.
//!
//! * **Soundness** — for every applicable operator, `answers(Q) ⊆
//!   answers(op(Q))`, verified by actual evaluation (not just the
//!   homomorphism check).
//! * **Monotone growth** — each relaxation-schedule prefix's answer set
//!   contains the previous prefix's.
//! * **Algorithm agreement** — DPO, SSO, and Hybrid return consistent
//!   top-K answer sets.
//! * **Relevance** — relaxed answers never outscore exact ones.
//!
//! Each test drives its cases from a fixed-seed internal PRNG, so failures
//! reproduce exactly and no external property-testing framework is needed.

use flexpath::{Algorithm, FleXPath, RankingScheme};
use flexpath_bench::baseline::{full_encoding_topk, rewrite_enumeration_topk};
use flexpath_engine::TopKRequest;
use flexpath_tpq::{applicable_ops, apply_op, Tpq, TpqBuilder};
use flexpath_xmark::rng::{Rng, SeedableRng, StdRng};

const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];
const WORDS: [&str; 4] = ["gold", "silver", "vintage", "auction"];
const CASES: u64 = 48;

/// A random XML tree, rendered directly to a string.
fn random_doc(rng: &mut StdRng) -> String {
    fn subtree(rng: &mut StdRng, depth: u32, out: &mut String) {
        if depth >= 4 || rng.gen_bool(0.25) {
            out.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
            return;
        }
        let tag = TAGS[rng.gen_range(0..TAGS.len())];
        let kids = rng.gen_range(0..4usize);
        if kids == 0 {
            out.push_str(&format!("<{tag}/>"));
        } else {
            out.push_str(&format!("<{tag}>"));
            for _ in 0..kids {
                subtree(rng, depth + 1, out);
            }
            out.push_str(&format!("</{tag}>"));
        }
    }
    let mut body = String::new();
    subtree(rng, 0, &mut body);
    format!("<root>{body}</root>")
}

/// A random small TPQ rooted at a random tag.
fn random_query(rng: &mut StdRng) -> Tpq {
    let mut b = TpqBuilder::new(TAGS[rng.gen_range(0..TAGS.len())]);
    let mut created = vec![0usize];
    let nodes = rng.gen_range(1..4usize);
    for _ in 0..nodes {
        let tag = TAGS[rng.gen_range(0..TAGS.len())];
        let parent = created[rng.gen_range(0..created.len())];
        let idx = if rng.gen_bool(0.5) {
            b.child(parent, tag)
        } else {
            b.descendant(parent, tag)
        };
        created.push(idx);
    }
    if rng.gen_bool(0.5) {
        let target = *created.last().unwrap();
        let word = WORDS[rng.gen_range(0..WORDS.len())];
        b.add_contains(target, flexpath::FtExpr::term(word));
    }
    b.build()
}

/// Evaluates a TPQ exactly (no relaxation) and returns its answer set.
fn exact_answers(flex: &FleXPath, q: &Tpq) -> Vec<flexpath::NodeId> {
    let mut r = flex
        .query_tpq(q.clone())
        .top(usize::MAX / 2)
        .max_relaxations(0)
        .execute()
        .unwrap()
        .nodes();
    r.sort();
    r
}

/// Runs `body` over `CASES` deterministic (doc, query) pairs.
fn for_cases(seed: u64, mut body: impl FnMut(&mut StdRng, &str, &Tpq)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ (case.wrapping_mul(0x9E37_79B9)));
        let xml = random_doc(&mut rng);
        let q = random_query(&mut rng);
        body(&mut rng, &xml, &q);
    }
}

#[test]
fn operators_are_sound_under_evaluation() {
    for_cases(0xA11CE, |_, xml, q| {
        let flex = FleXPath::from_xml(xml).unwrap();
        let base = exact_answers(&flex, q);
        for op in applicable_ops(q) {
            let relaxed = apply_op(q, &op).unwrap();
            let more = exact_answers(&flex, &relaxed);
            for n in &base {
                assert!(
                    more.contains(n),
                    "{op} lost answer {n:?} (query {}, doc {xml})",
                    q.to_xpath()
                );
            }
        }
    });
}

#[test]
fn relaxation_only_adds_answers_along_the_schedule() {
    for_cases(0xB0B, |_, xml, q| {
        let flex = FleXPath::from_xml(xml).unwrap();
        // Run with generous K and full relaxation: the result must contain
        // every exact answer, all carrying the maximal score.
        let exact = exact_answers(&flex, q);
        let full = flex.query_tpq(q.clone()).top(10_000).execute().unwrap();
        let full_nodes: Vec<_> = full.nodes();
        for n in &exact {
            assert!(full_nodes.contains(n), "exact answer {n:?} missing");
        }
        if !exact.is_empty() {
            let best = full.hits[0].score.ss;
            for h in &full.hits {
                if exact.contains(&h.node) {
                    assert!(
                        (h.score.ss - best).abs() < 1e-9,
                        "exact answer scored below maximum"
                    );
                }
            }
        }
    });
}

#[test]
fn sso_and_hybrid_agree() {
    for_cases(0xC0FFEE, |rng, xml, q| {
        let k = rng.gen_range(1..8usize);
        let flex = FleXPath::from_xml(xml).unwrap();
        let s = flex
            .query_tpq(q.clone())
            .top(k)
            .algorithm(Algorithm::Sso)
            .execute()
            .unwrap();
        let h = flex
            .query_tpq(q.clone())
            .top(k)
            .algorithm(Algorithm::Hybrid)
            .execute()
            .unwrap();
        assert_eq!(s.nodes(), h.nodes());
        for (a, b) in s.hits.iter().zip(h.hits.iter()) {
            assert!((a.score.ss - b.score.ss).abs() < 1e-9);
            assert!((a.score.ks - b.score.ks).abs() < 1e-9);
        }
    });
}

#[test]
fn dpo_answer_sets_match_encoded_algorithms() {
    for_cases(0xD1CE, |rng, xml, q| {
        let k = rng.gen_range(1..8usize);
        let flex = FleXPath::from_xml(xml).unwrap();
        let d = flex
            .query_tpq(q.clone())
            .top(k)
            .algorithm(Algorithm::Dpo)
            .execute()
            .unwrap();
        let h = flex
            .query_tpq(q.clone())
            .top(k)
            .algorithm(Algorithm::Hybrid)
            .execute()
            .unwrap();
        // DPO's coarser per-round scores can reorder ties, but the sets of
        // structural scores attainable must agree in size.
        assert_eq!(d.hits.len(), h.hits.len());
    });
}

#[test]
fn relevance_exact_answers_never_outscored() {
    for_cases(0xFACE, |_, xml, q| {
        let flex = FleXPath::from_xml(xml).unwrap();
        let r = flex.query_tpq(q.clone()).top(10_000).execute().unwrap();
        let exact = exact_answers(&flex, q);
        let best_exact = r
            .hits
            .iter()
            .filter(|h| exact.contains(&h.node))
            .map(|h| h.score.ss)
            .fold(f64::NEG_INFINITY, f64::max);
        if best_exact.is_finite() {
            for h in &r.hits {
                assert!(
                    h.score.ss <= best_exact + 1e-9,
                    "relaxed answer outscored exact ones structurally"
                );
            }
        }
    });
}

#[test]
fn encoded_and_enumerated_strategies_agree_on_answer_sets() {
    for_cases(0x5EED, |_, xml, q| {
        // Two *independent* evaluation paths: the relaxation-encoded plan
        // (ghost operands + bitsets) vs exhaustive query enumeration with
        // exact evaluation. They must cover the same answer universe.
        let flex = FleXPath::from_xml(xml).unwrap();
        let req = TopKRequest::new(q.clone(), 10_000);
        let encoded = full_encoding_topk(flex.context(), &req);
        let enumerated = rewrite_enumeration_topk(flex.context(), &req, 5_000);
        let mut a = encoded.nodes();
        let mut b = enumerated.nodes();
        a.sort();
        a.dedup();
        b.sort();
        b.dedup();
        assert_eq!(a, b, "strategies diverge on {} / {}", q.to_xpath(), xml);
    });
}

#[test]
fn scheme_results_are_permutations_of_each_other_at_full_k() {
    for_cases(0xF00D, |_, xml, q| {
        let flex = FleXPath::from_xml(xml).unwrap();
        let mut sets = Vec::new();
        for scheme in [
            RankingScheme::StructureFirst,
            RankingScheme::KeywordFirst,
            RankingScheme::Combined,
        ] {
            let mut nodes = flex
                .query_tpq(q.clone())
                .top(10_000)
                .scheme(scheme)
                .execute()
                .unwrap()
                .nodes();
            nodes.sort();
            sets.push(nodes);
        }
        assert_eq!(&sets[0], &sets[1]);
        assert_eq!(&sets[1], &sets[2]);
    });
}
