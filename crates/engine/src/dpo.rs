//! DPO — Dynamic Penalty Order (paper Section 5.1.1).
//!
//! DPO is the *rewriting* strategy: it evaluates the user query, and while
//! fewer than K answers have been produced it applies the next-cheapest
//! relaxation step and re-evaluates. Its strengths (usable with an
//! off-the-shelf XPath engine; answers arrive already grouped by score so
//! no resorting is needed; exact answer counts, no estimates) and weakness
//! (repeated passes over the data, one evaluation per relaxation round) are
//! both faithfully reproduced.
//!
//! Recomputation avoidance (Section 5.2.2): answers found in earlier rounds
//! are remembered and skipped, so each round only surfaces the *delta* its
//! relaxation admitted.

use crate::context::EngineContext;
use crate::encode::EncodedQuery;
use crate::exec::evaluate_encoded;
use crate::metrics::TraceSpan;
use crate::run::Run;
use crate::score::RankingScheme;
use crate::topk::{sort_answers, Algorithm, Answer, ExecStats, TopKRequest, TopKResult};
use std::collections::HashSet;
use std::time::Instant;

/// Runs the DPO top-K algorithm under the request's resource limits.
///
/// When the budget trips mid-search the partially evaluated round is
/// *discarded*: the returned answers are exactly the union of the completed
/// rounds, which by Theorem 3 is a prefix of the unbounded run's ranking
/// under structure-first order.
pub fn dpo_topk(ctx: &EngineContext, request: &TopKRequest) -> TopKResult {
    let mut run = Run::begin(ctx, request, Algorithm::Dpo);
    let (schedule, budget, model, base_ss) = (&run.schedule, &run.budget, &run.model, run.base_ss);
    let m = request.query.contains_count() as f64; // Combined-scheme bound

    let mut stats = ExecStats::default();
    let mut answers: Vec<Answer> = Vec::new();
    // lint:allow(determinism): membership-only dedup set — never iterated,
    // so its order cannot reach answers or fingerprints.
    let mut seen: HashSet<flexpath_xmldom::NodeId> = HashSet::new();
    // The structural score at which we had ≥ K answers (Combined pruning).
    let mut ss_at_k: Option<f64> = None;
    // Rounds whose deltas were fully committed (round 0 = the exact query).
    let mut completed_rounds = 0usize;

    // Stop before evaluating a round that cannot contribute to the top K.
    let should_stop = |answers: &[Answer], ss_at_k: Option<f64>, round_ss: f64| -> bool {
        if answers.len() < request.k {
            return false;
        }
        match request.scheme {
            RankingScheme::StructureFirst => {
                // Later rounds have ss ≤ previous; only exact ties could
                // still matter, and the schedule's penalties are ≥ 0, so
                // a strictly lower ss ends the search.
                let kth_ss = answers.iter().map(|a| a.score.ss).fold(f64::MAX, f64::min);
                round_ss < kth_ss
            }
            RankingScheme::Combined => {
                // Section 5.1: no answer of a relaxation with
                // ss_j ≤ ss_i − m can reach the top K (ks ≤ m).
                ss_at_k.is_some_and(|ssk| round_ss <= ssk - m)
            }
            RankingScheme::KeywordFirst => {
                // "All relaxations need to be encoded": an answer with
                // the worst structural score might still lead on ks.
                false
            }
        }
    };

    // Round 0 evaluates the exact query, round `r` the schedule's `r`-th
    // (cumulatively relaxed) query.
    for round in 0..=schedule.len() {
        let (round_query, round_ss) = if round == 0 {
            (&request.query, base_ss)
        } else {
            (&schedule[round - 1].query, schedule[round - 1].ss_after)
        };
        if budget.check_now() || should_stop(&answers, ss_at_k, round_ss) {
            break;
        }
        // lint:allow(determinism): per-round duration only; durations are
        // excluded from the counter fingerprint.
        let round_started = Instant::now();
        // Evaluate this round's query exactly (the off-the-shelf-engine
        // path).
        let enc = EncodedQuery::build_full(
            ctx,
            model,
            round_query,
            &[],
            request.hierarchy.as_ref(),
            request.attr_relaxation,
            budget,
        );
        let mut round_delta: Vec<Answer> = Vec::new();
        let mut intermediates = 0u64;
        // `evaluate_encoded` emits each binding once, in ascending node
        // order (`exec::tests::answers_stream_in_strictly_ascending_node_order`),
        // so a round needs no dedup of its own; the cross-round filter
        // against `seen` runs below.
        let scanned = evaluate_encoded(ctx, &enc, request.scheme, budget, |a| {
            intermediates += 1;
            // With the hierarchy extension the per-answer score already
            // reflects unsatisfied exact-tag predicates; carry that
            // deficit over to the round's compile-time score.
            let tag_deficit = enc.base_ss - a.score.ss;
            round_delta.push(Answer {
                node: a.node,
                score: crate::score::AnswerScore {
                    ss: round_ss - tag_deficit,
                    ks: a.score.ks,
                },
                satisfied: a.satisfied,
                relaxation_level: round,
            });
        });
        let round_time = round_started.elapsed();
        if budget.tripped().is_some() {
            // Partial round: discard its delta entirely (Theorem 3 prefix
            // correctness — committed rounds depend only on their endpoint
            // queries, not on how far the aborted round got).
            stats.evaluations += 1;
            stats.relaxations_used = round;
            break;
        }
        let candidates = scanned.candidates_examined;
        stats.evaluations += 1;
        stats.relaxations_used = round;
        stats.intermediate_answers += intermediates as usize;
        let before_dedup = round_delta.len();
        round_delta.retain(|a| !seen.contains(&a.node));
        if run.tracer.is_enabled() {
            let mut span = TraceSpan::new(if round == 0 {
                "round[0] op=exact".to_string()
            } else {
                format!("round[{round}] op={}", schedule[round - 1].op)
            });
            span.duration = round_time;
            span.add("round.roots", scanned.roots);
            span.add("round.candidates", candidates);
            span.add("round.intermediates", intermediates);
            span.add("round.admitted", round_delta.len() as u64);
            span.add(
                "round.duplicates_pruned",
                (before_dedup - round_delta.len()) as u64,
            );
            if round > 0 {
                span.add(
                    "round.dropped_preds",
                    schedule[round - 1].new_dropped.len() as u64,
                );
            }
            span.add("governor.checkpoint.dpo_round", 1);
            span.add("governor.checkpoint.candidate_loop", candidates);
            run.tracer.attach(span);
        }
        seen.extend(round_delta.iter().map(|a| a.node));
        answers.append(&mut round_delta);
        completed_rounds = round + 1;
        if answers.len() >= request.k && ss_at_k.is_none() {
            ss_at_k = Some(round_ss);
        }
    }

    sort_answers(&mut answers, request.scheme);
    answers.truncate(request.k);
    run.tracer
        .add_root("dpo.rounds_total", (schedule.len() + 1) as u64);
    run.tracer
        .add_root("dpo.rounds_committed", completed_rounds as u64);
    run.finish(answers, stats, completed_rounds.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{q1, ARTICLES};
    use flexpath_xmldom::parse;

    fn label(ctx: &EngineContext, a: &Answer) -> String {
        let id = ctx.resolve_tag("id").unwrap();
        ctx.doc().attribute(a.node, id).unwrap_or("?").to_string()
    }

    #[test]
    fn k1_stops_after_exact_round() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let r = dpo_topk(&ctx, &TopKRequest::new(q1(), 1));
        assert_eq!(r.answers.len(), 1);
        assert_eq!(label(&ctx, &r.answers[0]), "a0");
        assert_eq!(r.stats.evaluations, 1, "no relaxation needed for K=1");
        assert_eq!(r.answers[0].relaxation_level, 0);
    }

    #[test]
    fn relaxation_rounds_admit_more_answers_in_score_order() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let r = dpo_topk(&ctx, &TopKRequest::new(q1(), 4));
        assert_eq!(r.answers.len(), 4);
        // Exact answer first; scores non-increasing.
        assert_eq!(label(&ctx, &r.answers[0]), "a0");
        for w in r.answers.windows(2) {
            assert!(w[0].score.ss >= w[1].score.ss - 1e-12);
        }
        assert!(r.stats.evaluations > 1);
        // Relaxation levels are non-decreasing with rank under
        // structure-first.
        for w in r.answers.windows(2) {
            assert!(w[0].relaxation_level <= w[1].relaxation_level);
        }
    }

    #[test]
    fn k_larger_than_answer_universe_returns_everything() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let r = dpo_topk(&ctx, &TopKRequest::new(q1(), 50));
        // a4 never satisfies the contains; 4 answers max.
        assert_eq!(r.answers.len(), 4);
    }

    #[test]
    fn answers_are_not_duplicated_across_rounds() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let r = dpo_topk(&ctx, &TopKRequest::new(q1(), 10));
        let mut nodes: Vec<_> = r.answers.iter().map(|a| a.node).collect();
        let before = nodes.len();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), before);
    }

    #[test]
    fn more_relaxations_needed_for_larger_k() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let r1 = dpo_topk(&ctx, &TopKRequest::new(q1(), 1));
        let r4 = dpo_topk(&ctx, &TopKRequest::new(q1(), 4));
        assert!(r4.stats.relaxations_used > r1.stats.relaxations_used);
        assert!(r4.stats.evaluations > r1.stats.evaluations);
    }

    #[test]
    fn combined_scheme_returns_k_answers() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let r = dpo_topk(
            &ctx,
            &TopKRequest {
                scheme: RankingScheme::Combined,
                ..TopKRequest::new(q1(), 3)
            },
        );
        assert_eq!(r.answers.len(), 3);
        for w in r.answers.windows(2) {
            let a = w[0].score.ss + w[0].score.ks;
            let b = w[1].score.ss + w[1].score.ks;
            assert!(a >= b - 1e-12);
        }
    }

    #[test]
    fn keyword_first_runs_all_rounds() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let r = dpo_topk(
            &ctx,
            &TopKRequest {
                scheme: RankingScheme::KeywordFirst,
                ..TopKRequest::new(q1(), 2)
            },
        );
        assert_eq!(r.answers.len(), 2);
        for w in r.answers.windows(2) {
            assert!(w[0].score.ks >= w[1].score.ks - 1e-12);
        }
    }

    #[test]
    fn zero_k_returns_nothing_quickly() {
        let ctx = EngineContext::new(parse(ARTICLES).unwrap());
        let r = dpo_topk(&ctx, &TopKRequest::new(q1(), 0));
        assert!(r.answers.is_empty());
    }
}
