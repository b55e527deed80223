//! Human-readable explanations of relaxation schedules and answers.
//!
//! FleXPath's value proposition is that *lower-ranked answers are
//! explainable*: each one corresponds to a specific set of dropped closure
//! predicates with data-derived penalties. These helpers render that story.

use crate::session::FleXPath;
use flexpath_engine::{
    build_schedule, skew_millibits, Algorithm, Answer, CancelToken, EncodedQuery, EngineContext,
    PenaltyModel, QueryLimits, TraceSpan, WeightAssignment,
};
use flexpath_tpq::{QueryParseError, Tpq};
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

/// EXPLAIN ANALYZE: *runs* `xpath` with tracing enabled and renders what
/// actually happened — the span tree (parse, schedule, every relaxation
/// round / evaluation pass, with candidate / prune / cache / governor
/// counters and wall-clock durations), a per-operation estimate-vs-actual
/// table (the static selectivity estimate next to the observed answer
/// count, with the log₂-ratio skew in bits), and the deterministic
/// counter fingerprint (the digest that is byte-identical across runs,
/// however many threads share the session; see
/// `flexpath_engine::metrics`).
pub fn explain_profile(
    flex: &FleXPath,
    xpath: &str,
    k: usize,
    algorithm: Algorithm,
) -> Result<String, QueryParseError> {
    explain_profile_with(
        flex,
        xpath,
        k,
        algorithm,
        QueryLimits::default(),
        CancelToken::new(),
    )
}

/// [`explain_profile`] under governor control: the profiled run executes
/// with `limits` and stops at `cancel` like any other query, so callers
/// that must bound work (e.g. a server clamping per-request budgets) can
/// profile without granting an unlimited, uncancellable execution.
pub fn explain_profile_with(
    flex: &FleXPath,
    xpath: &str,
    k: usize,
    algorithm: Algorithm,
    limits: QueryLimits,
    cancel: CancelToken,
) -> Result<String, QueryParseError> {
    let results = flex
        .query(xpath)?
        .top(k)
        .algorithm(algorithm)
        .limits(limits)
        .cancel(cancel)
        .trace()
        .execute();
    let mut out = String::new();
    let _ = writeln!(out, "EXPLAIN ANALYZE  algorithm={algorithm} k={k}");
    let _ = writeln!(out, "query: {xpath}");
    let _ = writeln!(out, "completeness: {}", results.completeness);
    let _ = writeln!(out, "answers returned: {}", results.hits.len());
    if let Some(trace) = &results.trace {
        let _ = writeln!(out, "--- span tree ---");
        out.push_str(&trace.render_text());
        let rows = collect_skew_rows(&trace.root);
        if !rows.is_empty() {
            let _ = writeln!(out, "--- estimate vs actual ---");
            let _ = writeln!(
                out,
                "{:<32} {:>10} {:>10} {:>11}",
                "span", "estimated", "observed", "skew(bits)"
            );
            for (name, est, obs) in rows {
                let bits = skew_millibits(est as f64, obs) as f64 / 1000.0;
                let _ = writeln!(out, "{name:<32} {est:>10} {obs:>10} {bits:>+11.2}");
            }
        }
        let _ = writeln!(out, "--- deterministic counter fingerprint ---");
        out.push_str(&trace.counter_fingerprint());
    }
    Ok(out)
}

/// Walks the span tree collecting per-operation estimate-vs-observed pairs:
/// DPO rounds carry `round.estimated` / `round.observed`, SSO and Hybrid
/// passes carry `pass.estimated` / `pass.intermediates` (the answers the
/// encoded prefix actually streamed). Returns `(span name, estimated,
/// observed)` rows in execution order.
fn collect_skew_rows(span: &TraceSpan) -> Vec<(String, u64, u64)> {
    fn walk(span: &TraceSpan, out: &mut Vec<(String, u64, u64)>) {
        const PAIRS: [(&str, &str); 2] = [
            ("round.estimated", "round.observed"),
            ("pass.estimated", "pass.intermediates"),
        ];
        for (est_key, obs_key) in PAIRS {
            if let Some(est) = span.counters.get(est_key) {
                let obs = span.counters.get(obs_key).copied().unwrap_or(0);
                out.push((span.name.clone(), *est, obs));
            }
        }
        for c in &span.children {
            walk(c, out);
        }
    }
    let mut rows = Vec::new();
    walk(span, &mut rows);
    rows
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
        let r = flex.query(Q1).unwrap().top(2).execute();
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

    #[test]
    fn profile_renders_spans_and_fingerprint() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let text = explain_profile(&flex, Q1, 2, crate::Algorithm::Dpo).unwrap();
        assert!(text.contains("EXPLAIN ANALYZE"), "{text}");
        assert!(text.contains("span tree"), "{text}");
        assert!(text.contains("round[0] op=exact"), "{text}");
        assert!(text.contains("round.candidates="), "{text}");
        assert!(text.contains("governor.checkpoint."), "{text}");
        assert!(text.contains("counter fingerprint"), "{text}");
        assert!(text.contains("dpo>schedule"), "{text}");
    }

    #[test]
    fn profile_renders_estimate_vs_actual_table() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        for algo in [
            crate::Algorithm::Dpo,
            crate::Algorithm::Sso,
            crate::Algorithm::Hybrid,
        ] {
            let text = explain_profile(&flex, Q1, 2, algo).unwrap();
            assert!(
                text.contains("--- estimate vs actual ---"),
                "{algo:?}: {text}"
            );
            assert!(text.contains("skew(bits)"), "{algo:?}: {text}");
            // Every skew row is a round or pass span with a signed skew.
            let has_row = text
                .lines()
                .skip_while(|l| !l.contains("estimate vs actual"))
                .any(|l| {
                    (l.contains("round[") || l.contains("pass["))
                        && (l.contains('+') || l.contains('-'))
                });
            assert!(has_row, "{algo:?}: {text}");
        }
    }

    #[test]
    fn profile_with_honors_limits_and_cancel() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        // A zero answer budget trips before completion — the profile must
        // report a partial run, not ignore the limits.
        let limited = explain_profile_with(
            &flex,
            Q1,
            2,
            crate::Algorithm::Dpo,
            QueryLimits::default().with_max_candidate_answers(0),
            CancelToken::new(),
        )
        .unwrap();
        assert!(limited.contains("completeness: exhausted"), "{limited}");
        // A pre-cancelled token stops the run at its first checkpoint.
        let cancel = CancelToken::new();
        cancel.cancel();
        let cancelled = explain_profile_with(
            &flex,
            Q1,
            2,
            crate::Algorithm::Dpo,
            QueryLimits::default(),
            cancel,
        )
        .unwrap();
        assert!(cancelled.contains("completeness: exhausted"), "{cancelled}");
    }

    #[test]
    fn unrelaxable_query_explains_gracefully() {
        let flex = FleXPath::from_xml(CORPUS).unwrap();
        let q = flexpath_tpq::TpqBuilder::new("article").build();
        let text = explain_schedule(flex.context(), &q, 64);
        assert!(text.contains("no relaxation applicable"), "{text}");
    }
}
