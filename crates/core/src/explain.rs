//! Human-readable explanations of relaxation schedules and answers.
//!
//! FleXPath's value proposition is that *lower-ranked answers are
//! explainable*: each one corresponds to a specific set of dropped closure
//! predicates with data-derived penalties. These helpers render that story.

use crate::session::QueryResults;
use flexpath_engine::{
    build_schedule, Answer, EncodedQuery, EngineContext, PenaltyModel, WeightAssignment,
};
use flexpath_tpq::Tpq;
use std::fmt::Write as _;

/// Renders the penalty-ordered relaxation schedule of `query` against the
/// session's document: one line per operator with the predicates it drops,
/// its penalty, and the structural score of answers it admits.
pub fn explain_schedule(ctx: &EngineContext, query: &Tpq, max_steps: usize) -> String {
    let model = PenaltyModel::new(query, WeightAssignment::uniform());
    let schedule = build_schedule(ctx, &model, query, max_steps);
    let mut out = String::new();
    let _ = writeln!(out, "query: {}", query.to_xpath());
    let _ = writeln!(
        out,
        "exact-match structural score: {:.3}",
        model.base_structural_score(query)
    );
    for (i, step) in schedule.iter().enumerate() {
        let _ = writeln!(
            out,
            "step {:>2}: {}  (penalty {:.3}, answers score {:.3})",
            i + 1,
            step.op,
            step.step_penalty,
            step.ss_after
        );
        for (pred, pi) in &step.new_dropped {
            let _ = writeln!(out, "          drops {pred}  [π = {pi:.3}]");
        }
    }
    if schedule.is_empty() {
        let _ = writeln!(out, "(no relaxation applicable)");
    }
    out
}

/// Renders the fully relaxation-encoded plan for `query` (Figure 8 style):
/// per-node match conditions, ghost operands, and the relaxable-predicate
/// bits with their penalties.
pub fn explain_plan(ctx: &EngineContext, query: &Tpq, max_steps: usize) -> String {
    let model = PenaltyModel::new(query, WeightAssignment::uniform());
    let schedule = build_schedule(ctx, &model, query, max_steps);
    let enc = EncodedQuery::build(ctx, &model, query, &schedule);
    enc.describe(ctx)
}

/// EXPLAIN ANALYZE: renders what a traced run actually did — the span
/// tree (parse, schedule, every relaxation round / evaluation pass, with
/// candidate / prune / cache / governor counters and wall-clock durations)
/// and the deterministic counter fingerprint (the digest that is
/// byte-identical across runs, however many threads share the session; see
/// `flexpath_engine::metrics`). `results` comes from
/// [`TopKQuery::execute`](crate::TopKQuery::execute) with
/// [`trace`](crate::TopKQuery::trace) set; `xpath` and `k` are the query
/// text and K it ran with, for the header.
pub fn explain_profile(results: &QueryResults, xpath: &str, k: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "EXPLAIN ANALYZE  algorithm={} k={k}",
        results.algorithm
    );
    let _ = writeln!(out, "query: {xpath}");
    let _ = writeln!(out, "completeness: {}", results.completeness);
    let _ = writeln!(out, "answers returned: {}", results.hits.len());
    if let Some(trace) = &results.trace {
        let _ = writeln!(out, "--- span tree ---");
        out.push_str(&trace.render_text());
        let _ = writeln!(out, "--- deterministic counter fingerprint ---");
        out.push_str(&trace.counter_fingerprint());
    }
    out
}

/// Renders one answer: its node, scores, and relaxation level.
pub fn explain_answer(ctx: &EngineContext, answer: &Answer) -> String {
    let doc = ctx.doc();
    let tag = doc.tag_name(answer.node).unwrap_or("?");
    let mut out = String::new();
    let _ = write!(
        out,
        "<{tag}> {}  ss={:.3} ks={:.3}",
        answer.node, answer.score.ss, answer.score.ks
    );
    if answer.relaxation_level == 0 {
        let _ = write!(out, "  (exact match)");
    } else {
        let _ = write!(
            out,
            "  (admitted after {} relaxation step{})",
            answer.relaxation_level,
            if answer.relaxation_level == 1 {
                ""
            } else {
                "s"
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleXPath;

    const CORPUS: &str = "<site>\
        <article><section><algorithm>x</algorithm>\
          <paragraph>XML streaming</paragraph></section></article>\
        <article><note>XML streaming</note></article>\
        </site>";

    const Q1: &str =
        "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]";

    #[test]
    fn schedule_explanation_mentions_operators_and_penalties() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let q = flexpath_tpq::parse_query(Q1).unwrap();
        let text = explain_schedule(flex.context(), &q, 64);
        assert!(text.contains("exact-match structural score"), "{text}");
        assert!(text.contains("step  1"), "{text}");
        assert!(text.contains("π ="), "{text}");
        // All four operator glyphs can appear; at least one must.
        assert!(
            ["γ", "λ", "σ", "κ"].iter().any(|g| text.contains(g)),
            "{text}"
        );
    }

    #[test]
    fn answer_explanation_distinguishes_exact_and_relaxed() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let r = flex.query(Q1).unwrap().top(2).execute().unwrap();
        let exact = explain_answer(flex.context(), &r.hits[0]);
        assert!(exact.contains("exact match"), "{exact}");
        let relaxed = explain_answer(flex.context(), &r.hits[1]);
        assert!(relaxed.contains("relaxation step"), "{relaxed}");
    }

    #[test]
    fn plan_explanation_shows_bits_and_ghosts() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let q = flexpath_tpq::parse_query(Q1).unwrap();
        let text = explain_plan(flex.context(), &q, 64);
        assert!(text.contains("encoded plan"), "{text}");
        assert!(text.contains("[root]"), "{text}");
        assert!(
            text.contains("ghost"),
            "fully relaxed plan has ghosts: {text}"
        );
        assert!(text.contains("π="), "{text}");
        assert!(text.contains("requires contains#0"), "{text}");
    }

    /// A traced DPO run of `Q1` under `limits`, rendered.
    fn profile(flex: &FleXPath, limits: crate::QueryLimits) -> String {
        let results = flex
            .query(Q1)
            .unwrap()
            .top(2)
            .algorithm(crate::Algorithm::Dpo)
            .limits(limits)
            .trace()
            .execute()
            .unwrap();
        explain_profile(&results, Q1, 2)
    }

    #[test]
    fn profile_renders_spans_and_fingerprint() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let text = profile(&flex, crate::QueryLimits::default());
        assert!(
            text.contains("EXPLAIN ANALYZE  algorithm=DPO k=2"),
            "{text}"
        );
        assert!(text.contains("span tree"), "{text}");
        assert!(text.contains("round[0] op=exact"), "{text}");
        assert!(text.contains("round.candidates="), "{text}");
        assert!(text.contains("governor.checkpoint."), "{text}");
        assert!(text.contains("counter fingerprint"), "{text}");
        assert!(text.contains("dpo>schedule"), "{text}");
    }

    #[test]
    fn profile_reports_a_tripped_run() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        // A zero answer budget trips before completion — the profile shows
        // the partial run it was handed.
        let limited = profile(
            &flex,
            crate::QueryLimits::default().with_max_candidate_answers(0),
        );
        assert!(limited.contains("completeness: exhausted"), "{limited}");
    }

    #[test]
    fn unrelaxable_query_explains_gracefully() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let q = flexpath_tpq::TpqBuilder::new("article").build();
        let text = explain_schedule(flex.context(), &q, 64);
        assert!(text.contains("no relaxation applicable"), "{text}");
    }
}
