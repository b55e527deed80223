//! An independent reference for the encoded evaluator (first slice of
//! ROADMAP item 1).
//!
//! `tests/properties.rs` makes DPO, SSO and Hybrid agree with each other,
//! but all three evaluate through `exec.rs`, so a bug there passes. Here,
//! for seeded random small documents × random TPQs × **every** schedule
//! prefix `p`, three answer sets must be equal:
//!
//! * (a) the encoded plan — `evaluate_encoded(build(schedule[..p]))`,
//!   ghosts, relaxable bits and all;
//! * (b) the exact evaluation of the relaxed query itself —
//!   `evaluate_encoded(exact(schedule[p-1].query))`;
//! * (c) the brute-force matcher of `tests/common/brute_force.rs`, which
//!   shares no code with the engine.
//!
//! (a) = (b) is the paper's "the encoded plan admits exactly the answers
//! of the relaxations it encodes" (Section 5.1.1, Theorem 2); (c) anchors
//! both to something that is not `exec.rs`. The document shapes include the
//! ones XMark never produces: one tag recursing five deep, repeated labels
//! on one path, 200-way fan-out, a required leaf below two deleted
//! ancestors — and the two the candidate loop's fast paths branch on
//! (`shapes::SPANS`, `shapes::LEAVES`).
//!
//! Answer sets cannot see the saturation shortcut: a candidate loop that
//! stops too early still admits the answer, with a worse embedding. So (c)
//! also pins the *score* of (a) where it can: a node the brute force finds
//! for the unrelaxed query has an embedding satisfying every predicate,
//! ghosts included, so the encoded plan must give it the full structural
//! score and level 0 at every prefix.

#[path = "common/brute_force.rs"]
mod brute_force;
#[path = "common/shapes.rs"]
mod shapes;

use brute_force::naive_exact_answers;
use flexpath_engine::encode::BitCheck;
use flexpath_engine::exec::evaluate_encoded;
use flexpath_engine::{
    build_schedule, Answer, EncodedQuery, EngineContext, PenaltyModel, RankingScheme,
    WeightAssignment,
};
use flexpath_ftsearch::Budget;
use flexpath_xmldom::NodeId;
use std::collections::BTreeSet;

fn evaluate(ctx: &EngineContext, enc: &EncodedQuery) -> Vec<Answer> {
    let mut out = Vec::new();
    evaluate_encoded(
        ctx,
        enc,
        RankingScheme::StructureFirst,
        &Budget::unlimited(),
        |a| out.push(a),
    );
    out
}

fn nodes(answers: &[Answer]) -> Vec<NodeId> {
    answers.iter().map(|a| a.node).collect()
}

#[test]
fn encoded_plan_admits_exactly_the_relaxed_querys_answers_at_every_prefix() {
    let mut prefixes_checked = 0usize;
    let mut ghost_chains = 0usize;
    let mut exact_scores_checked = 0usize;
    let mut anchor_spans = BTreeSet::new();
    let mut leaves_below_a_ghost = 0usize;
    for case in 0..20 * shapes::SHAPES {
        let (xml, q) = shapes::case(case);
        let ctx = EngineContext::new(flexpath_xmldom::parse(&xml).unwrap());
        let model = PenaltyModel::new(&q, WeightAssignment::uniform());
        let steps = build_schedule(&ctx, &model, &q, 64);
        if case % shapes::SHAPES == shapes::SPANS {
            let doc = ctx.doc();
            let spans = doc.nodes_with_tag_name("a").iter();
            anchor_spans.extend(spans.map(|&a| doc.subtree_last(a).0 - a.0));
        }
        let base_ss = model.base_structural_score(&q);
        let exact_answers = naive_exact_answers(ctx.doc(), &q);
        for p in 0..=steps.len() {
            let relaxed = if p == 0 { &q } else { &steps[p - 1].query };
            if relaxed.distinguished_var() != q.distinguished_var() {
                // λ deleted the distinguished node and its parent took
                // over; the encoded plan keeps projecting the original
                // node. Out of this test's reach — see ROADMAP item 1.
                break;
            }
            let at = || format!("case {case}, prefix {p}: {} over {xml}", relaxed.to_xpath());
            let enc = EncodedQuery::build(&ctx, &model, &q, &steps[..p]);
            let encoded = evaluate(&ctx, &enc);
            let exact = evaluate(&ctx, &EncodedQuery::exact(&ctx, &model, relaxed));
            let brute = naive_exact_answers(ctx.doc(), relaxed);
            assert_eq!(nodes(&exact), brute, "exact ≠ brute force — {}", at());
            assert_eq!(nodes(&encoded), brute, "encoded ≠ brute force — {}", at());
            for a in &encoded {
                if exact_answers.contains(&a.node) {
                    assert!(
                        a.score.ss >= base_ss - 1e-9 && a.relaxation_level == 0,
                        "exact answer {:?} scores {} < {base_ss} at level {}: a candidate \
                         loop kept a worse embedding — {}",
                        a.node,
                        a.score.ss,
                        a.relaxation_level,
                        at()
                    );
                    exact_scores_checked += 1;
                }
                if q.contains_count() > 0 {
                    assert!(a.score.ks > 0.0, "{:?} has ks = 0 — {}", a.node, at());
                }
            }
            prefixes_checked += 1;
            // A surviving childless spec (the shape has no text, so its
            // bits are all pc/ad) with a bit referring to a ghost: unbound,
            // the ghost takes that bit out of the leaf's saturation target
            // (`exec.rs`, `ext_refs`).
            if case % shapes::SHAPES == shapes::LEAVES {
                let childless = |i: usize| enc.specs.iter().all(|s| s.parent != Some(i));
                let refers_to_ghost = |bi: &usize| match enc.relaxable[*bi].check {
                    BitCheck::PcFrom(x) | BitCheck::AdFrom(x) => !enc.specs[x].surviving,
                    _ => false,
                };
                if enc
                    .specs
                    .iter()
                    .enumerate()
                    .any(|(i, s)| s.surviving && childless(i) && s.bits.iter().any(refers_to_ghost))
                {
                    leaves_below_a_ghost += 1;
                }
            }
            // A surviving spec whose original parent and grandparent are
            // both ghosts: the shape `ghost_skip` used to wave through.
            let deleted = |i: Option<usize>| i.is_some_and(|i| !enc.specs[i].surviving);
            if enc.specs.iter().any(|s| {
                s.surviving
                    && deleted(s.parent)
                    && deleted(s.parent.and_then(|i| enc.specs[i].parent))
            }) {
                ghost_chains += 1;
            }
        }
    }
    // The generator must keep producing what this test exists for.
    assert!(prefixes_checked > 1_000, "only {prefixes_checked} prefixes");
    assert!(
        ghost_chains > 10,
        "only {ghost_chains} ghost → ghost → surviving plans"
    );
    assert!(
        exact_scores_checked > 1_000,
        "only {exact_scores_checked} exact answers re-scored under relaxed plans"
    );
    // 31 and 32 take the id-range scan of `SMALL_SUBTREE`, 33 the tag list.
    assert_eq!(anchor_spans, BTreeSet::from([31, 32, 33]));
    assert!(
        leaves_below_a_ghost > 10,
        "only {leaves_below_a_ghost} plans with a leaf bit referring to a ghost"
    );
}
