//! Value-predicate relaxation — the second "other relaxation" of paper
//! Section 3.4: *"We could replace value-based predicates, e.g.,
//! `$i.price ≤ 98` with `$i.price ≤ 100`"* (and footnote 4: a predicate
//! can be relaxed to weaker bounds).
//!
//! Like the type-hierarchy extension, this is orthogonal to the structural
//! operators and lives at the engine level: with an [`AttrRelaxation`]
//! attached to the request, every *numeric* attribute comparison is matched
//! against a slackened bound, and the strict bound becomes one more
//! relaxable bit. The penalty follows the paper's context-loss pattern:
//!
//! ```text
//! π(attr pred) = #(elements satisfying the strict bound)
//!              / #(elements satisfying the slackened bound)  ×  w
//! ```
//!
//! — computed from the data at encode time, so a slack that admits nothing
//! new costs the full weight (no discount for useless relaxation).

use crate::context::EngineContext;
use flexpath_tpq::{AttrOp, AttrPred};
use flexpath_xmldom::Sym;

/// Configuration for numeric attribute-bound slackening.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrRelaxation {
    /// Relative slack applied to numeric bounds: `price < 100` is matched
    /// as `price < 100 × (1 + slack)` (and `>` bounds as `× (1 − slack)`).
    /// Equality predicates widen to a `± slack` band.
    pub slack: f64,
    /// Weight of the strict-bound predicate (penalty scale).
    pub weight: f64,
}

impl Default for AttrRelaxation {
    fn default() -> Self {
        AttrRelaxation {
            slack: 0.1,
            weight: 1.0,
        }
    }
}

impl AttrRelaxation {
    /// The slackened variant of `pred`, or `None` when the predicate is not
    /// numeric (string comparisons are never slackened) or slackening is a
    /// no-op (`!=`).
    pub fn relaxed_pred(&self, pred: &AttrPred) -> Option<AttrPred> {
        let bound: f64 = pred.value.parse().ok()?;
        let magnitude = bound.abs().max(1.0) * self.slack;
        let relaxed = match pred.op {
            AttrOp::Lt | AttrOp::Le => AttrPred {
                name: pred.name.clone(),
                op: pred.op,
                value: format_bound(bound + magnitude),
            },
            AttrOp::Gt | AttrOp::Ge => AttrPred {
                name: pred.name.clone(),
                op: pred.op,
                value: format_bound(bound - magnitude),
            },
            AttrOp::Eq => {
                // Widen equality to a band: |v − bound| ≤ magnitude. Encoded
                // as a pair of comparisons at match time; represented here
                // as the lower bound (the evaluator checks the band).
                return Some(AttrPred {
                    name: pred.name.clone(),
                    op: AttrOp::Ge,
                    value: format_bound(bound - magnitude),
                });
            }
            AttrOp::Ne => return None,
        };
        Some(relaxed)
    }

    /// Whether `actual` satisfies the *slackened* form of `pred`.
    pub fn satisfies_relaxed(&self, pred: &AttrPred, actual: Option<&str>) -> bool {
        let Some(actual) = actual else { return false };
        let (Ok(a), Ok(bound)) = (actual.parse::<f64>(), pred.value.parse::<f64>()) else {
            // Non-numeric: no slackening, strict semantics.
            return pred.eval(Some(actual));
        };
        let magnitude = bound.abs().max(1.0) * self.slack;
        match pred.op {
            AttrOp::Lt => a < bound + magnitude,
            AttrOp::Le => a <= bound + magnitude,
            AttrOp::Gt => a > bound - magnitude,
            AttrOp::Ge => a >= bound - magnitude,
            AttrOp::Eq => (a - bound).abs() <= magnitude,
            AttrOp::Ne => a != bound,
        }
    }

    /// Data-derived penalty for relaxing `pred` on elements tagged `tag`:
    /// the fraction of relaxed-satisfying elements that already satisfy the
    /// strict bound. Falls back to the full weight when the relaxation
    /// admits nothing.
    pub fn penalty(
        &self,
        ctx: &EngineContext,
        tag: Option<Sym>,
        attr: Option<Sym>,
        pred: &AttrPred,
    ) -> f64 {
        let (Some(tag), Some(attr)) = (tag, attr) else {
            return self.weight;
        };
        let mut strict = 0u64;
        let mut relaxed = 0u64;
        let doc = ctx.doc();
        for &n in doc.nodes_with_tag(tag) {
            let actual = doc.attribute(n, attr);
            if self.satisfies_relaxed(pred, actual) {
                relaxed += 1;
                if pred.eval(actual) {
                    strict += 1;
                }
            }
        }
        if relaxed == 0 {
            return self.weight;
        }
        (strict as f64 / relaxed as f64).clamp(0.0, 1.0) * self.weight
    }
}

fn format_bound(v: f64) -> Box<str> {
    // Trim trailing zeros for readability in explain output.
    let s = format!("{v:.6}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    s.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpath_xmldom::parse;

    fn pred(op: AttrOp, value: &str) -> AttrPred {
        AttrPred {
            name: "price".into(),
            op,
            value: value.into(),
        }
    }

    #[test]
    fn upper_bounds_slacken_upward() {
        let r = AttrRelaxation {
            slack: 0.1,
            weight: 1.0,
        };
        let p = pred(AttrOp::Le, "100");
        assert!(!p.eval(Some("105")));
        assert!(r.satisfies_relaxed(&p, Some("105")));
        assert!(!r.satisfies_relaxed(&p, Some("115")));
        let relaxed = r.relaxed_pred(&p).unwrap();
        assert_eq!(&*relaxed.value, "110");
    }

    #[test]
    fn lower_bounds_slacken_downward() {
        let r = AttrRelaxation {
            slack: 0.2,
            weight: 1.0,
        };
        let p = pred(AttrOp::Ge, "50");
        assert!(!p.eval(Some("45")));
        assert!(r.satisfies_relaxed(&p, Some("45")));
        assert!(!r.satisfies_relaxed(&p, Some("30")));
    }

    #[test]
    fn equality_widens_to_a_band() {
        let r = AttrRelaxation {
            slack: 0.05,
            weight: 1.0,
        };
        let p = pred(AttrOp::Eq, "200");
        assert!(r.satisfies_relaxed(&p, Some("205")));
        assert!(r.satisfies_relaxed(&p, Some("195")));
        assert!(!r.satisfies_relaxed(&p, Some("215")));
    }

    #[test]
    fn string_predicates_stay_strict() {
        let r = AttrRelaxation::default();
        let p = AttrPred {
            name: "cat".into(),
            op: AttrOp::Eq,
            value: "tools".into(),
        };
        assert!(r.satisfies_relaxed(&p, Some("tools")));
        assert!(!r.satisfies_relaxed(&p, Some("toolz")));
        assert!(r.relaxed_pred(&p).is_none());
    }

    #[test]
    fn missing_attributes_never_satisfy() {
        let r = AttrRelaxation::default();
        assert!(!r.satisfies_relaxed(&pred(AttrOp::Le, "10"), None));
    }

    #[test]
    fn penalty_is_the_strict_over_relaxed_fraction() {
        // Prices 80, 95, 105, 120 with bound ≤ 100, slack 10%:
        // strict = {80, 95}, relaxed = {80, 95, 105} → π = 2/3.
        let ctx = EngineContext::new(
            parse("<r><i price=\"80\"/><i price=\"95\"/><i price=\"105\"/><i price=\"120\"/></r>")
                .unwrap(),
        );
        let r = AttrRelaxation {
            slack: 0.1,
            weight: 1.0,
        };
        let tag = ctx.resolve_tag("i");
        let attr = ctx.resolve_tag("price");
        let pi = r.penalty(&ctx, tag, attr, &pred(AttrOp::Le, "100"));
        assert!((pi - 2.0 / 3.0).abs() < 1e-12, "got {pi}");
    }

    #[test]
    fn useless_slack_costs_full_weight() {
        let ctx = EngineContext::new(parse("<r><i price=\"500\"/></r>").unwrap());
        let r = AttrRelaxation {
            slack: 0.1,
            weight: 1.0,
        };
        let tag = ctx.resolve_tag("i");
        let attr = ctx.resolve_tag("price");
        let pi = r.penalty(&ctx, tag, attr, &pred(AttrOp::Le, "100"));
        assert_eq!(pi, 1.0);
    }
}
