//! Selectivity estimation (paper Section 6).
//!
//! SSO decides *statically* how many relaxations to encode using estimated
//! result sizes. We implement the estimator the paper describes: intensive
//! preprocessing collects node/edge counts ([`flexpath_xmldom::DocStats`]),
//! then a **uniform-distribution independence assumption** is applied —
//! "suppose 60% of A's in the document have a B as a child; we assume that
//! this fraction is independent of the location of A in the document".
//!
//! The estimate of a TPQ is therefore
//!
//! ```text
//! est(Q) = #(tag(root)) · Π_{edges (x,y)} P(edge) · Π_{contains(x,E)} P(x sat E)
//! ```
//!
//! with `P(pc-edge) = min(1, #pc(tx,ty)/#(tx))`, `P(ad-edge) = min(1,
//! #ad(tx,ty)/#(tx))`, and `P(x sat E) = #contains(tx,E)/#(tx)`. The `min`
//! clamps expected-count ratios into probabilities ("at least one child")
//! — the same simplification the paper's own estimator makes by treating
//! fractions as independent probabilities.

use crate::context::EngineContext;
use flexpath_ftsearch::Budget;
use flexpath_tpq::{Axis, Tpq};

/// Estimates the number of answers (distinct distinguished-node bindings)
/// of `q` against the context's document.
///
/// The full-text evaluations behind `contains` probabilities charge
/// `budget`'s postings meter (and a tripped evaluation is never cached).
/// Under a tripped budget the estimate may be truncated — callers stop at
/// their next checkpoint.
pub fn estimate_cardinality(ctx: &EngineContext, q: &Tpq, budget: &Budget) -> f64 {
    // Root count.
    let root = q.node(q.root());
    let mut est = match root.tag.as_deref() {
        Some(tag) => match ctx.resolve_tag(tag) {
            Some(sym) => ctx.stats().tag_count(sym) as f64,
            None => 0.0,
        },
        None => ctx.stats().element_total() as f64,
    };
    if est == 0.0 {
        return 0.0;
    }
    // Edge probabilities, independence-assumed.
    for (idx, node) in q.nodes().iter().enumerate() {
        let Some(parent) = node.parent else { continue };
        let ptag = q.node(parent).tag.as_deref();
        let ctag = node.tag.as_deref();
        let p = edge_probability(ctx, ptag, ctag, node.axis);
        est *= p;
        let _ = idx;
    }
    // Contains probabilities.
    for node in q.nodes() {
        let Some(tag) = node.tag.as_deref() else {
            continue;
        };
        let Some(sym) = ctx.resolve_tag(tag) else {
            return 0.0;
        };
        let total = ctx.stats().tag_count(sym);
        if total == 0 {
            return 0.0;
        }
        for e in &node.contains {
            let sat = ctx.ft_eval(e, budget).count_for_tag(ctx.doc(), sym);
            est *= sat as f64 / total as f64;
        }
    }
    est
}

fn edge_probability(
    ctx: &EngineContext,
    parent_tag: Option<&str>,
    child_tag: Option<&str>,
    axis: Axis,
) -> f64 {
    let (Some(pt), Some(ct)) = (parent_tag, child_tag) else {
        // Wildcard endpoints: assume the edge is satisfiable.
        return 1.0;
    };
    let (Some(ps), Some(cs)) = (ctx.resolve_tag(pt), ctx.resolve_tag(ct)) else {
        return 0.0;
    };
    let parents = ctx.stats().tag_count(ps);
    if parents == 0 {
        return 0.0;
    }
    let pairs = match axis {
        Axis::Child => ctx.stats().pc_count(ps, cs),
        Axis::Descendant => ctx.stats().ad_count(ps, cs),
    };
    (pairs as f64 / parents as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpath_ftsearch::FtExpr;
    use flexpath_tpq::TpqBuilder;
    use flexpath_xmldom::parse;

    fn ctx(xml: &str) -> EngineContext {
        EngineContext::new(parse(xml).unwrap())
    }

    fn estimate(ctx: &EngineContext, q: &Tpq) -> f64 {
        estimate_cardinality(ctx, q, &Budget::unlimited())
    }

    #[test]
    fn exact_for_single_tag_queries() {
        let c = ctx("<r><a/><a/><a/></r>");
        let q = TpqBuilder::new("a").build();
        assert_eq!(estimate(&c, &q), 3.0);
    }

    #[test]
    fn uniform_fraction_multiplies_down_the_path() {
        // 4 a's, 2 with a b child → P = 0.5; estimate 4 × 0.5 = 2.
        let c = ctx("<r><a><b/></a><a><b/></a><a/><a/></r>");
        let mut b = TpqBuilder::new("a");
        b.child(0, "b");
        let q = b.build();
        assert!((estimate(&c, &q) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn descendant_axis_uses_ad_counts() {
        // b under a only transitively: pc estimate 0, ad estimate positive.
        let c = ctx("<r><a><w><b/></w></a><a/></r>");
        let mut builder = TpqBuilder::new("a");
        builder.child(0, "b");
        let pc_q = builder.build();
        let mut builder = TpqBuilder::new("a");
        builder.descendant(0, "b");
        let ad_q = builder.build();
        assert_eq!(estimate(&c, &pc_q), 0.0);
        assert!((estimate(&c, &ad_q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relaxation_never_lowers_the_estimate() {
        let c = ctx("<r><a><b/></a><a><w><b/></w></a><a><b/><c/></a><a/><a><c/></a></r>");
        let mut builder = TpqBuilder::new("a");
        builder.child(0, "b");
        builder.child(0, "c");
        let q = builder.build();
        let base = estimate(&c, &q);
        for op in flexpath_tpq::applicable_ops(&q) {
            let relaxed = flexpath_tpq::apply_op(&q, &op).unwrap();
            let est = estimate(&c, &relaxed);
            assert!(
                est >= base - 1e-12,
                "{op} lowered the estimate: {base} → {est}"
            );
        }
    }

    #[test]
    fn contains_scales_by_satisfaction_fraction() {
        // 2 of 4 a's contain "gold".
        let c = ctx("<r><a>gold</a><a>gold</a><a>x</a><a>y</a></r>");
        let mut b = TpqBuilder::new("a");
        b.add_contains(0, FtExpr::term("gold"));
        let q = b.build();
        assert!((estimate(&c, &q) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_tags_estimate_zero() {
        let c = ctx("<r><a/></r>");
        let q = TpqBuilder::new("missing").build();
        assert_eq!(estimate(&c, &q), 0.0);
        let mut b = TpqBuilder::new("a");
        b.child(0, "missing");
        assert_eq!(estimate(&c, &b.build()), 0.0);
    }

    #[test]
    fn probabilities_are_clamped() {
        // Every a has 3 b children: raw ratio 3.0, clamped to 1.0 so the
        // estimate cannot exceed the root count.
        let c = ctx("<r><a><b/><b/><b/></a><a><b/><b/><b/></a></r>");
        let mut b = TpqBuilder::new("a");
        b.child(0, "b");
        let q = b.build();
        assert!((estimate(&c, &q) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_is_reasonable_on_xmark_queries() {
        let doc = flexpath_xmark::generate(&flexpath_xmark::XmarkConfig::sized(64 * 1024, 42));
        let c = EngineContext::new(doc);
        let q = flexpath_tpq::parse_query("//item[./description/parlist]").unwrap();
        let est = estimate(&c, &q);
        let items = c.stats().tag_count(c.resolve_tag("item").unwrap()) as f64;
        assert!(est > 0.0 && est <= items, "est {est}, items {items}");
    }
}
