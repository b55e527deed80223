//! The single-pass driver: SSO (paper Algorithm 1) and Hybrid (Section
//! 5.2.3, Algorithm 2).
//!
//! Both algorithms never count answers by evaluating: they use the
//! selectivity estimator to decide *statically* which relaxations to
//! encode, evaluate the single encoded plan once, and restart with more
//! relaxations when the estimate proved optimistic. The paper defines
//! Hybrid as "SSO's single plan + DPO's no-resort property via
//! bucketization" — the same driver with a different way of holding the
//! intermediate answers — and that is how it is built here: one restart
//! loop, monomorphized over an [`IntermediateAnswers`] policy. SSO holds
//! them in [`TopKBuckets`] (ranking-key buckets, threshold pruning against
//! the K-th best key), Hybrid in [`SatisfiedBuckets`] (satisfied-bitset
//! buckets behind a `maxScoreGrowth` floor); `crate::order` has the policy
//! table and the argument for why neither ever resorts an answer.
//!
//! Unlike DPO, a budget-tripped single-pass run returns *best-effort*
//! answers (whatever the policy held when the budget tripped): the single
//! encoded plan scores answers per-predicate, so a partial scan is not
//! guaranteed to be a rank prefix of the unbounded run (documented in
//! DESIGN.md).

use crate::context::EngineContext;
use crate::encode::EncodedQuery;
use crate::exec::evaluate_encoded;
use crate::order::{IntermediateAnswers, Offer, SatisfiedBuckets, TopKBuckets};
use crate::run::Run;
use crate::schedule::ScheduledStep;
use crate::score::RankingScheme;
use crate::selectivity::estimate_cardinality;
use crate::topk::{Algorithm, ExecStats, TopKRequest, TopKResult};
use flexpath_ftsearch::Budget;

/// Runs the SSO top-K algorithm under the request's resource limits.
pub fn sso_topk(ctx: &EngineContext, request: &TopKRequest) -> TopKResult {
    let held = TopKBuckets::new(request.k, request.scheme);
    single_pass_topk(ctx, request, Algorithm::Sso, held)
}

/// Runs the Hybrid top-K algorithm under the request's resource limits.
pub fn hybrid_topk(ctx: &EngineContext, request: &TopKRequest) -> TopKResult {
    // Keyword headroom: an answer can gain at most `m` from ks.
    let m = request.query.contains_count() as f64;
    let held = SatisfiedBuckets::new(request.k, request.scheme, m);
    single_pass_topk(ctx, request, Algorithm::Hybrid, held)
}

/// Chooses the schedule prefix to encode: the shortest prefix whose
/// estimated cardinality reaches K, extended for the Combined scheme by the
/// Section 5.1 bound (`ss_j > ss_i − m`).
fn choose_prefix(
    ctx: &EngineContext,
    request: &TopKRequest,
    schedule: &[ScheduledStep],
    base_ss: f64,
    budget: &Budget,
) -> (usize, f64) {
    if request.scheme == RankingScheme::KeywordFirst {
        // "For the keyword-first scheme, all relaxations need to be encoded
        // in the query."
        let est = schedule
            .last()
            .map(|s| estimate_cardinality(ctx, &s.query, budget))
            .unwrap_or_else(|| estimate_cardinality(ctx, &request.query, budget));
        return (schedule.len(), est);
    }
    // Algorithm 1, lines 3–7, with one deviation: the paper accumulates
    // per-relaxation estimates ("estimNumAnswers += estimResultSize"), which
    // double-counts overlapping answer sets and with our
    // uniform-independence estimator stops too early, causing costly
    // restarts. Since every relaxation *contains* its predecessors, the
    // answer universe at prefix `i` is exactly the relaxed query's, so we
    // advance until that single (conservative — it tends to underestimate)
    // estimate reaches K. The paper's own estimator was precise enough that
    // it "never had to restart"; this rule restores that behaviour.
    let mut i = 0usize;
    let mut est = estimate_cardinality(ctx, &request.query, budget);
    while est < request.k as f64 && i < schedule.len() {
        i += 1;
        est = est.max(estimate_cardinality(ctx, &schedule[i - 1].query, budget));
    }
    if request.scheme == RankingScheme::Combined {
        // Keep encoding while a later relaxation could still reach the top
        // K on keyword score alone: ks ≤ m, so stop once ss_j ≤ ss_i − m.
        let m = request.query.contains_count() as f64;
        let ss_i = if i == 0 {
            base_ss
        } else {
            schedule[i - 1].ss_after
        };
        while i < schedule.len() && schedule[i].ss_after > ss_i - m {
            i += 1;
        }
        if i > 0 {
            est = estimate_cardinality(ctx, &schedule[i - 1].query, budget);
        }
    }
    (i, est)
}

fn single_pass_topk(
    ctx: &EngineContext,
    request: &TopKRequest,
    algorithm: Algorithm,
    mut held: impl IntermediateAnswers,
) -> TopKResult {
    let mut run = Run::begin(ctx, request, algorithm);
    let (schedule, budget) = (&run.schedule, &run.budget);

    let mut stats = ExecStats::default();
    run.tracer.begin("choose_prefix");
    let (mut prefix, est) = choose_prefix(ctx, request, schedule, run.base_ss, budget);
    run.tracer.add("prefix.steps", prefix as u64);
    run.tracer
        .add("prefix.estimated_answers", est.max(0.0) as u64);
    run.tracer.end();

    loop {
        if budget.check_now() {
            break;
        }
        run.tracer.begin(&format!("pass[{}]", stats.restarts));
        let pass_intermediates = stats.intermediate_answers;
        let pass_pruned = stats.pruned;
        let enc = EncodedQuery::build_full(
            ctx,
            &run.model,
            &request.query,
            &schedule[..prefix],
            request.hierarchy.as_ref(),
            request.attr_relaxation,
            budget,
        );
        stats.relaxations_used = prefix;
        stats.evaluations += 1;
        held.clear();
        let scanned = evaluate_encoded(ctx, &enc, request.scheme, budget, |a| {
            stats.intermediate_answers += 1;
            // Pruning (cannot enter the top K → discard) and bucket
            // placement happen inside the policy; no element is ever
            // shifted.
            if held.offer(a) == Offer::Pruned {
                stats.pruned += 1;
            }
        });
        let candidates = scanned.candidates_examined;
        if run.tracer.is_enabled() {
            let t = &mut run.tracer;
            t.add("pass.prefix", prefix as u64);
            t.add("pass.roots", scanned.roots);
            t.add("pass.candidates", candidates);
            t.add(
                "pass.intermediates",
                (stats.intermediate_answers - pass_intermediates) as u64,
            );
            t.add("pass.pruned", (stats.pruned - pass_pruned) as u64);
            t.add("pass.buckets", held.bucket_count() as u64);
            if let Some(evicted) = held.evicted() {
                t.add("pass.evicted", evicted);
            }
            let site = algorithm.checkpoint_site().name();
            t.add(&format!("governor.checkpoint.{site}"), 1);
            t.add("governor.checkpoint.candidate_loop", candidates);
        }
        run.tracer.end();
        if budget.tripped().is_some() {
            // Keep the best-effort answers scanned so far; no restart.
            break;
        }
        // Estimate miss: relax further and restart ("we would need to
        // restart SSO", Section 6). The restart extends the prefix until
        // the *additional* estimated answers cover twice the observed
        // deficit, so the number of restarts stays logarithmic even when
        // the estimator is persistently optimistic.
        if held.len() < request.k && prefix < schedule.len() {
            let deficit = (request.k - held.len()) as f64;
            let mut gained = 0.0;
            // Geometric advance: each successive restart at least doubles
            // the number of newly encoded steps, bounding restarts at
            // O(log |schedule|) even under persistent overestimates.
            let min_steps = 1usize << stats.restarts.min(6);
            let mut steps_taken = 0usize;
            while prefix < schedule.len() && (steps_taken < min_steps || gained < 2.0 * deficit) {
                steps_taken += 1;
                gained += estimate_cardinality(ctx, &schedule[prefix].query, budget);
                prefix += 1;
            }
            stats.restarts += 1;
            continue;
        }
        break;
    }

    stats.buckets = held.bucket_count();
    run.tracer.add_root("restarts", stats.restarts as u64);
    run.tracer.add_root("buckets", stats.buckets as u64);
    let explored = stats.relaxations_used;
    run.finish(held.into_ranked(), stats, explored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{q1, ARTICLES};
    use flexpath_ftsearch::FtExpr;
    use flexpath_tpq::TpqBuilder;
    use flexpath_xmldom::parse;

    #[test]
    fn returns_k_answers_sorted_by_score() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let r = sso_topk(&ctx, &TopKRequest::new(q1(), 3));
        assert_eq!(r.answers.len(), 3);
        for w in r.answers.windows(2) {
            assert!(w[0]
                .score
                .cmp_under(&w[1].score, RankingScheme::StructureFirst)
                .is_ge());
        }
    }

    #[test]
    fn single_evaluation_when_estimate_holds() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let r = sso_topk(&ctx, &TopKRequest::new(q1(), 1));
        assert_eq!(r.stats.restarts, 0);
        assert_eq!(r.stats.evaluations, 1);
    }

    #[test]
    fn bucketized_order_maintenance_reorders_document_order() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let r = sso_topk(&ctx, &TopKRequest::new(q1(), 4));
        // Document order ≠ score order in this corpus, yet the bucketized
        // structure re-orders without moving a single element.
        assert_eq!(r.answers.len(), 4);
        assert!(r.stats.intermediate_answers >= 4);
        assert!(r.stats.buckets >= 2, "distinct score classes expected");
    }

    #[test]
    fn restart_when_estimates_overshoot() {
        // A corpus engineered so the estimator is optimistic: many sections
        // and paragraphs overall, but never in the right configuration.
        let xml = "<site>\
            <article><section/><section/><section/><section/></article>\
            <article><paragraph>XML streaming</paragraph></article>\
            <article><section><paragraph>XML streaming</paragraph></section></article>\
            </site>";
        let ctx = EngineContext::new(parse(xml).unwrap());
        let mut b = TpqBuilder::new("article");
        let s = b.child(0, "section");
        let p = b.child(s, "paragraph");
        b.add_contains(p, FtExpr::all_of(&["XML", "streaming"]));
        let q = b.build();
        let r = sso_topk(&ctx, &TopKRequest::new(q, 3));
        // Independence assumption overestimates; SSO must restart (or have
        // encoded everything) yet still return what exists.
        assert!(r.answers.len() >= 2);
        assert!(r.stats.restarts > 0 || r.stats.relaxations_used > 0);
    }

    #[test]
    fn agrees_with_dpo_on_answer_sets_and_bounds_scores() {
        // The paper (Section 5.2.1): DPO gives every answer of a relaxation
        // the same compile-time score, while SSO/Hybrid compute per-answer
        // scores from the predicates actually satisfied — a *more accurate*
        // score. The answer sets agree; DPO's score is a lower bound.
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let req = TopKRequest::new(q1(), 4);
        let sso = sso_topk(&ctx, &req);
        let dpo = crate::dpo::dpo_topk(&ctx, &req);
        let mut sso_nodes = sso.nodes();
        let mut dpo_nodes = dpo.nodes();
        sso_nodes.sort();
        dpo_nodes.sort();
        assert_eq!(sso_nodes, dpo_nodes, "same answer set");
        for a in &sso.answers {
            let d = dpo.answers.iter().find(|b| b.node == a.node).unwrap();
            assert!(
                d.score.ss <= a.score.ss + 1e-9,
                "DPO's compile-time ss must lower-bound the per-answer ss"
            );
        }
    }

    #[test]
    fn keyword_first_encodes_all_relaxations() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let r = sso_topk(
            &ctx,
            &TopKRequest::new(q1(), 2).with_scheme(RankingScheme::KeywordFirst),
        );
        assert_eq!(r.answers.len(), 2);
        for w in r.answers.windows(2) {
            assert!(w[0].score.ks >= w[1].score.ks - 1e-12);
        }
    }

    #[test]
    fn pruning_kicks_in_for_small_k() {
        // Build a larger corpus so more than K answers stream by.
        let doc = flexpath_xmark::generate(&flexpath_xmark::XmarkConfig::sized(64 * 1024, 9));
        let ctx = EngineContext::new(doc);
        let q = flexpath_tpq::parse_query("//item[./description/parlist and ./mailbox/mail/text]")
            .unwrap();
        let mut req = TopKRequest::new(q, 5);
        req.max_relaxation_steps = 16;
        let r = sso_topk(&ctx, &req);
        assert_eq!(r.answers.len(), 5);
        if r.stats.intermediate_answers > 5 {
            // Excess answers are either rejected at the floor or spread
            // over multiple score buckets (and evicted from the worst).
            assert!(r.stats.pruned > 0 || r.stats.buckets > 1);
        }
    }

    #[test]
    fn hybrid_agrees_with_sso_exactly() {
        // Hybrid and SSO encode the same relaxations and compute the same
        // per-answer scores; only the intermediate bookkeeping differs.
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        for k in [1, 2, 3, 4, 10] {
            for scheme in [
                RankingScheme::StructureFirst,
                RankingScheme::KeywordFirst,
                RankingScheme::Combined,
            ] {
                let req = TopKRequest::new(q1(), k).with_scheme(scheme);
                let h = hybrid_topk(&ctx, &req);
                let s = sso_topk(&ctx, &req);
                assert_eq!(h.nodes(), s.nodes(), "k={k} scheme={scheme:?}");
                for (a, b) in h.answers.iter().zip(s.answers.iter()) {
                    assert!((a.score.ss - b.score.ss).abs() < 1e-9);
                    assert!((a.score.ks - b.score.ks).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn buckets_group_answers_by_satisfied_set() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let r = hybrid_topk(&ctx, &TopKRequest::new(q1(), 4));
        // a0..a3 all satisfy different predicate subsets here, so buckets
        // number between 1 and 4 and answers total 4.
        assert_eq!(r.answers.len(), 4);
        assert!(r.stats.buckets >= 2, "expected multiple score classes");
    }

    #[test]
    fn hybrid_on_xmark_agrees_with_sso() {
        let doc = flexpath_xmark::generate(&flexpath_xmark::XmarkConfig::sized(48 * 1024, 21));
        let ctx = EngineContext::new(doc);
        let q = flexpath_tpq::parse_query("//item[./description/parlist and ./mailbox/mail/text]")
            .unwrap();
        for k in [5, 20] {
            let req = TopKRequest::new(q.clone(), k);
            let h = hybrid_topk(&ctx, &req);
            let s = sso_topk(&ctx, &req);
            assert_eq!(h.answers.len(), s.answers.len(), "k={k}");
            // Score multisets agree (ordering of exact ties may differ
            // pre-sort, but sort_answers ties on node id, so full equality).
            assert_eq!(h.nodes(), s.nodes(), "k={k}");
        }
    }

    #[test]
    fn combined_scheme_respects_keyword_headroom() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let req = TopKRequest::new(q1(), 2).with_scheme(RankingScheme::Combined);
        let h = hybrid_topk(&ctx, &req);
        let s = sso_topk(&ctx, &req);
        assert_eq!(h.nodes(), s.nodes());
    }
}
