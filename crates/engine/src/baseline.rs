//! Baseline evaluation strategies from the paper's related work
//! (Section 7), implemented for comparison with DPO/SSO/Hybrid:
//!
//! * **Rewriting enumeration** (`rewrite_enumeration_topk`) — the
//!   [Delobel-Rousset / Schlieder]-style strategy: enumerate the *entire*
//!   relaxation space up front, score every relaxed query, and evaluate
//!   them one by one in score order. DPO's contribution over this baseline
//!   is penalty-guided laziness: it only generates the relaxations the
//!   top-K answer set actually needs.
//!
//! * **Full encoding** (`full_encoding_topk`) — the [Amer-Yahia et al.,
//!   EDBT 2002] plan-based strategy the paper refines: *all* possible
//!   relaxations are encoded in one plan ("thereby resulting in large
//!   intermediate query results"). SSO's contribution is selectivity-guided
//!   prefix choice.
//!
//! * **Data relaxation** (`data_relaxation_topk`) — the APPROXML strategy:
//!   materialize a closure of the document graph ("inserting shortcut edges
//!   between each pair of nodes in the same path") and evaluate against it.
//!   The paper notes it "was shown to quickly fail with large databases";
//!   [`ExecStats::shortcut_pairs`] exposes the materialization volume that
//!   causes exactly that failure mode.
//!
//! The baselines are reference implementations: they run the shared
//! evaluator without resource limits.

use crate::context::EngineContext;
use crate::encode::EncodedQuery;
use crate::exec::evaluate_encoded;
use crate::schedule::build_schedule;
use crate::score::{AnswerScore, PenaltyModel};
use crate::structural_join::stack_tree_desc;
use crate::topk::{sort_answers, Answer, ExecStats, TopKRequest, TopKResult};
use flexpath_ftsearch::Budget;
use flexpath_tpq::enumerate_space;
use std::collections::HashSet;

/// Rewriting-enumeration baseline: materialize the relaxation space, order
/// the relaxed queries by the structural score of their answers, evaluate
/// each exactly until K answers accumulate.
///
/// `max_space` bounds the enumeration (the space is exponential in query
/// size — the very reason the paper's algorithms avoid materializing it).
pub fn rewrite_enumeration_topk(
    ctx: &EngineContext,
    request: &TopKRequest,
    max_space: usize,
) -> TopKResult {
    let model = PenaltyModel::new(&request.query, request.weights.clone());
    let unbudgeted = Budget::unlimited();
    let mut stats = ExecStats::default();
    let space = enumerate_space(&request.query, max_space);
    stats.relaxations_used = space.len() - 1;

    // Score every entry by its dropped-predicate penalties, best first.
    let base = model.base_structural_score(&request.query);
    let mut scored: Vec<(f64, usize)> = space
        .entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let penalty: f64 = e
                .dropped
                .iter()
                .map(|p| model.penalty(ctx, p, &unbudgeted))
                .sum();
            (base - penalty, i)
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));

    let mut answers: Vec<Answer> = Vec::new();
    let mut seen: HashSet<flexpath_xmldom::NodeId> = HashSet::new();
    for (ss, idx) in scored {
        if answers.len() >= request.k {
            break;
        }
        let entry = &space.entries[idx];
        let enc = EncodedQuery::exact(ctx, &model, &entry.tpq);
        stats.evaluations += 1;
        evaluate_encoded(ctx, &enc, request.scheme, &unbudgeted, |a| {
            stats.intermediate_answers += 1;
            if seen.insert(a.node) {
                answers.push(Answer {
                    node: a.node,
                    score: AnswerScore { ss, ks: a.score.ks },
                    satisfied: a.satisfied,
                    relaxation_level: entry.ops.len(),
                });
            }
        });
    }
    sort_answers(&mut answers, request.scheme);
    answers.truncate(request.k);
    TopKResult::complete(answers, stats)
}

/// Full-encoding baseline: the entire relaxation schedule is encoded in one
/// plan regardless of K — no selectivity estimation, no pruning benefit
/// from stopping earlier.
pub fn full_encoding_topk(ctx: &EngineContext, request: &TopKRequest) -> TopKResult {
    let model = PenaltyModel::new(&request.query, request.weights.clone());
    let unbudgeted = Budget::unlimited();
    let schedule = build_schedule(ctx, &model, &request.query, request.max_relaxation_steps);
    let mut stats = ExecStats {
        relaxations_used: schedule.len(),
        evaluations: 1,
        ..ExecStats::default()
    };
    let enc = EncodedQuery::build(ctx, &model, &request.query, &schedule);
    let mut answers: Vec<Answer> = Vec::new();
    evaluate_encoded(ctx, &enc, request.scheme, &unbudgeted, |a| {
        stats.intermediate_answers += 1;
        answers.push(a);
    });
    sort_answers(&mut answers, request.scheme);
    answers.truncate(request.k);
    TopKResult::complete(answers, stats)
}

/// Data-relaxation baseline (APPROXML): materialize ancestor-descendant
/// shortcut edges for every tag pair of the query (the "closure of the
/// document graph", restricted to the tags the query can touch), then
/// answer the fully relaxed query. The shortcut volume is the approach's
/// scaling hazard and is reported in [`ExecStats::shortcut_pairs`].
pub fn data_relaxation_topk(ctx: &EngineContext, request: &TopKRequest) -> TopKResult {
    let model = PenaltyModel::new(&request.query, request.weights.clone());
    let unbudgeted = Budget::unlimited();
    let mut stats = ExecStats::default();

    // Materialize shortcut edges between every pair of query tags related
    // by containment — this is the data-side closure.
    let tags: Vec<_> = request
        .query
        .nodes()
        .iter()
        .filter_map(|n| n.tag.as_deref())
        .filter_map(|t| ctx.resolve_tag(t))
        .collect();
    let mut shortcuts: u64 = 0;
    // lint:allow(fallibility): baselines run on resident contexts built by
    // the bench/test harness; a lazy decode fault here is a harness bug,
    // and the accessor's loud panic is the right surface for it.
    let doc = ctx.doc();
    for &a in &tags {
        for &d in &tags {
            let anc_list = doc.nodes_with_tag(a);
            let desc_list = doc.nodes_with_tag(d);
            let pairs = stack_tree_desc(doc, anc_list, desc_list);
            shortcuts += pairs.len() as u64;
        }
    }
    stats.shortcut_pairs = shortcuts;

    // With the data closure in place every structural edge is satisfiable
    // transitively: evaluate the fully relaxed query.
    let schedule = build_schedule(ctx, &model, &request.query, request.max_relaxation_steps);
    stats.relaxations_used = schedule.len();
    stats.evaluations = 1;
    let enc = EncodedQuery::build(ctx, &model, &request.query, &schedule);
    let mut answers: Vec<Answer> = Vec::new();
    evaluate_encoded(ctx, &enc, request.scheme, &unbudgeted, |a| {
        stats.intermediate_answers += 1;
        answers.push(a);
    });
    sort_answers(&mut answers, request.scheme);
    answers.truncate(request.k);
    TopKResult::complete(answers, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::q1;
    use crate::single_pass::hybrid_topk;
    use flexpath_tpq::TpqBuilder;
    use flexpath_xmldom::parse;

    const ARTICLES: &str = "<site>\
        <article id=\"a0\"><section><algorithm>x</algorithm>\
          <paragraph>XML streaming</paragraph></section></article>\
        <article id=\"a1\"><section><title>XML streaming</title>\
          <algorithm>y</algorithm><paragraph>other</paragraph></section></article>\
        <article id=\"a2\"><section><wrap><paragraph>XML streaming</paragraph></wrap>\
          </section><algorithm>z</algorithm></article>\
        <article id=\"a3\"><note>XML streaming</note></article>\
        </site>";

    #[test]
    fn rewrite_enumeration_finds_the_same_answer_set() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let req = TopKRequest::new(q1(), 4);
        let baseline = rewrite_enumeration_topk(&ctx, &req, 10_000);
        let hybrid = hybrid_topk(&ctx, &req);
        let mut a = baseline.nodes();
        let mut b = hybrid.nodes();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // …but at a much higher evaluation count.
        assert!(
            baseline.stats.evaluations > hybrid.stats.evaluations,
            "enumeration must evaluate more queries ({} vs {})",
            baseline.stats.evaluations,
            hybrid.stats.evaluations
        );
    }

    #[test]
    fn full_encoding_matches_hybrid_answers_without_estimates() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let req = TopKRequest::new(q1(), 4);
        let fe = full_encoding_topk(&ctx, &req);
        let hybrid = hybrid_topk(&ctx, &req);
        assert_eq!(fe.nodes(), hybrid.nodes());
        for (a, b) in fe.answers.iter().zip(hybrid.answers.iter()) {
            assert!((a.score.ss - b.score.ss).abs() < 1e-9);
        }
        // Full encoding always uses the whole schedule.
        assert!(fe.stats.relaxations_used >= hybrid.stats.relaxations_used);
    }

    #[test]
    fn data_relaxation_reports_shortcut_volume() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let req = TopKRequest::new(q1(), 4);
        let dr = data_relaxation_topk(&ctx, &req);
        assert!(
            dr.stats.shortcut_pairs > 0,
            "closure must materialize pairs"
        );
        let hybrid = hybrid_topk(&ctx, &req);
        let mut a = dr.nodes();
        let mut b = hybrid.nodes();
        a.sort();
        b.sort();
        assert_eq!(a, b, "same answers despite the different strategy");
    }

    #[test]
    fn shortcut_volume_grows_superlinearly_with_recursion() {
        // Recursive tags are the killer for data relaxation: parlist chains
        // of depth d materialize O(d²) pairs.
        let shallow = EngineContext::new(parse("<r><p><p/></p></r>").unwrap());
        let deep =
            EngineContext::new(parse("<r><p><p><p><p><p><p/></p></p></p></p></p></r>").unwrap());
        let mut b = TpqBuilder::new("p");
        b.child(0, "p");
        let q = b.build();
        let req = TopKRequest::new(q, 5);
        let s = data_relaxation_topk(&shallow, &req);
        let d = data_relaxation_topk(&deep, &req);
        // Depth 2 → 1 pair; depth 6 → 15 pairs: ×15 for ×3 depth.
        assert!(d.stats.shortcut_pairs >= s.stats.shortcut_pairs * 10);
    }
}
