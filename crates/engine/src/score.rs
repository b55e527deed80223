//! Ranking schemes, predicate weights, and data-derived predicate penalties
//! (paper Section 4).
//!
//! The structural score of an answer to a relaxation `Q'` of `Q` is
//!
//! ```text
//! ss  =  Σᵢ w(pᵢ)  −  Σ_{p ∈ S} π(p)
//! ```
//!
//! where `pᵢ` ranges over the structural predicates of the *original* query,
//! `S = close(Q) − close(Q')` is the set of dropped closure predicates, and
//! `π` is the penalty model of Section 4.3.1:
//!
//! * drop `pc(i,j)` (keeping `ad`):  `#pc(tᵢ,tⱼ) / #ad(tᵢ,tⱼ) × w`
//! * drop `ad(i,j)`:                 `#ad(tᵢ,tⱼ) / (#(tᵢ)·#(tⱼ)) × w`
//! * drop `contains(i,E)` (promote to parent `l`):
//!   `#contains(tᵢ,E) / #contains(t_l,E) × w`
//!
//! Because each predicate's penalty depends only on the predicate (and the
//! data), any aggregate of the dropped multiset is **order invariant**
//! (Theorem 3), and since penalties are non-negative, relaxing can never
//! raise a structural score (**relevance**, property 1).

use crate::context::EngineContext;
use flexpath_ftsearch::{Budget, FtExpr};
use flexpath_tpq::{Predicate, Tpq, Var};
use std::collections::BTreeMap;

/// Per-predicate weights `w_Q`. The paper fixes `w(contains) = 1` and lets
/// structural weights be user-specified; `uniform()` (the default, used by
/// the experiments) gives every structural and `contains` predicate weight 1.
#[derive(Debug, Clone)]
pub struct WeightAssignment {
    default_structural: f64,
    overrides: BTreeMap<Predicate, f64>,
}

impl Default for WeightAssignment {
    fn default() -> Self {
        Self::uniform()
    }
}

impl WeightAssignment {
    /// Unit weight for every predicate.
    pub fn uniform() -> Self {
        WeightAssignment {
            default_structural: 1.0,
            overrides: BTreeMap::new(),
        }
    }

    /// Uniform weight `w` for structural predicates (contains stays 1).
    pub fn structural(w: f64) -> Self {
        WeightAssignment {
            default_structural: w,
            overrides: BTreeMap::new(),
        }
    }

    /// Overrides the weight of one specific predicate.
    pub fn with_override(mut self, pred: Predicate, weight: f64) -> Self {
        self.overrides.insert(pred, weight);
        self
    }

    /// Weight of a predicate. `contains` predicates default to 1 per the
    /// paper ("For the contains predicate, we assume a weight of 1");
    /// non-structural value predicates carry no weight.
    pub fn weight(&self, pred: &Predicate) -> f64 {
        if let Some(&w) = self.overrides.get(pred) {
            return w;
        }
        match pred {
            Predicate::Pc(..) | Predicate::Ad(..) => self.default_structural,
            Predicate::Contains(..) => 1.0,
            Predicate::Tag(..) | Predicate::Attr(..) => 0.0,
        }
    }
}

/// The data-derived penalty model for one (query, document) pair.
pub struct PenaltyModel {
    /// Tag of each original query variable (`None` = wildcard).
    var_tags: BTreeMap<Var, Option<Box<str>>>,
    /// Original query parent of each variable.
    var_parent: BTreeMap<Var, Var>,
    weights: WeightAssignment,
}

impl PenaltyModel {
    /// Builds the model for `original` (variable tags and parents are read
    /// from the *original* query — penalties are properties of the original
    /// closure, independent of how far relaxation has progressed).
    pub fn new(original: &Tpq, weights: WeightAssignment) -> Self {
        let mut var_tags = BTreeMap::new();
        let mut var_parent = BTreeMap::new();
        for node in original.nodes() {
            var_tags.insert(node.var, node.tag.clone());
            if let Some(p) = node.parent {
                var_parent.insert(node.var, original.node(p).var);
            }
        }
        PenaltyModel {
            var_tags,
            var_parent,
            weights,
        }
    }

    /// The weight assignment in use.
    pub fn weights(&self) -> &WeightAssignment {
        &self.weights
    }

    /// Sum of weights over the original query's structural predicates — the
    /// structural score of an exact answer (3 for Q1 in Example 1).
    pub fn base_structural_score(&self, original: &Tpq) -> f64 {
        original
            .logical()
            .structural()
            .map(|p| self.weights.weight(p))
            .sum()
    }

    fn tag_of(&self, v: Var) -> Option<&str> {
        self.var_tags.get(&v).and_then(|t| t.as_deref())
    }

    /// Penalty `π(p)` for dropping closure predicate `p` (Section 4.3.1).
    ///
    /// Ratios are clamped to `[0, 1]` and degenerate denominators (a tag or
    /// pair absent from the document, a wildcard variable) fall back to the
    /// full predicate weight — a relaxation that cannot produce new answers
    /// earns no discount.
    ///
    /// The full-text evaluation behind a `contains` penalty charges
    /// `budget`'s postings meter (and a tripped evaluation is never
    /// cached). A tripped budget yields a penalty from a partial evaluation
    /// — callers stop at their next checkpoint, so the value is never used
    /// to rank answers.
    pub fn penalty(&self, ctx: &EngineContext, p: &Predicate, budget: &Budget) -> f64 {
        let w = self.weights.weight(p);
        if w == 0.0 {
            return 0.0;
        }
        let ratio = match p {
            Predicate::Pc(x, y) => self.pc_ratio(ctx, *x, *y),
            Predicate::Ad(x, y) => self.ad_ratio(ctx, *x, *y),
            Predicate::Contains(x, e) => self.contains_ratio(ctx, *x, e, budget),
            Predicate::Tag(..) | Predicate::Attr(..) => 1.0,
        };
        ratio.clamp(0.0, 1.0) * w
    }

    fn pc_ratio(&self, ctx: &EngineContext, x: Var, y: Var) -> f64 {
        let (Some(tx), Some(ty)) = (self.tag_of(x), self.tag_of(y)) else {
            return 1.0;
        };
        let (Some(sx), Some(sy)) = (ctx.resolve_tag(tx), ctx.resolve_tag(ty)) else {
            return 1.0;
        };
        let ad = ctx.stats().ad_count(sx, sy);
        if ad == 0 {
            return 1.0;
        }
        ctx.stats().pc_count(sx, sy) as f64 / ad as f64
    }

    fn ad_ratio(&self, ctx: &EngineContext, x: Var, y: Var) -> f64 {
        let (Some(tx), Some(ty)) = (self.tag_of(x), self.tag_of(y)) else {
            return 1.0;
        };
        let (Some(sx), Some(sy)) = (ctx.resolve_tag(tx), ctx.resolve_tag(ty)) else {
            return 1.0;
        };
        let denom = ctx.stats().tag_count(sx) * ctx.stats().tag_count(sy);
        if denom == 0 {
            return 1.0;
        }
        ctx.stats().ad_count(sx, sy) as f64 / denom as f64
    }

    fn contains_ratio(&self, ctx: &EngineContext, x: Var, e: &FtExpr, budget: &Budget) -> f64 {
        let Some(l) = self.var_parent.get(&x) else {
            return 1.0; // contains at the root is never promotable
        };
        let (Some(tx), Some(tl)) = (self.tag_of(x), self.tag_of(*l)) else {
            return 1.0;
        };
        let (Some(sx), Some(sl)) = (ctx.resolve_tag(tx), ctx.resolve_tag(tl)) else {
            return 1.0;
        };
        let eval = ctx.ft_eval(e, budget);
        let denom = eval.count_for_tag(ctx.doc(), sl);
        if denom == 0 {
            return 1.0;
        }
        eval.count_for_tag(ctx.doc(), sx) as f64 / denom as f64
    }

    /// Total penalty of a dropped-predicate set (the `Σ_{p∈S} π(p)` term).
    pub fn total_penalty<'a>(
        &self,
        ctx: &EngineContext,
        dropped: impl IntoIterator<Item = &'a Predicate>,
    ) -> f64 {
        // Explain-side helper (tests, paper examples): deliberately
        // unbudgeted, like the estimates it is compared against.
        let budget = Budget::unlimited();
        dropped
            .into_iter()
            .map(|p| self.penalty(ctx, p, &budget))
            .sum()
    }
}

/// How structural and keyword scores combine (paper Section 4.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankingScheme {
    /// Score is the pair `(ss, ks)`, lexicographic.
    StructureFirst,
    /// Score is the pair `(ks, ss)`, lexicographic.
    KeywordFirst,
    /// Score is `ks + ss`.
    Combined,
}

/// An answer's two-component score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerScore {
    /// Structural score.
    pub ss: f64,
    /// Keyword score.
    pub ks: f64,
}

impl AnswerScore {
    /// Sort key under `scheme` — higher is better; compare with
    /// [`AnswerScore::cmp_under`].
    pub fn key(&self, scheme: RankingScheme) -> (f64, f64) {
        match scheme {
            RankingScheme::StructureFirst => (self.ss, self.ks),
            RankingScheme::KeywordFirst => (self.ks, self.ss),
            RankingScheme::Combined => (self.ss + self.ks, 0.0),
        }
    }

    /// Total order under `scheme` (descending = better first is `reverse`).
    pub fn cmp_under(&self, other: &AnswerScore, scheme: RankingScheme) -> std::cmp::Ordering {
        let (a1, a2) = self.key(scheme);
        let (b1, b2) = other.key(scheme);
        a1.total_cmp(&b1).then(a2.total_cmp(&b2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpath_tpq::TpqBuilder;
    use flexpath_xmldom::parse;

    fn ctx(xml: &str) -> EngineContext {
        EngineContext::new(parse(xml).unwrap())
    }

    fn q_section() -> Tpq {
        let mut b = TpqBuilder::new("article");
        let s = b.child(0, "section");
        let p = b.child(s, "paragraph");
        b.add_contains(p, FtExpr::term("gold"));
        b.build()
    }

    fn penalty(m: &PenaltyModel, c: &EngineContext, p: &Predicate) -> f64 {
        m.penalty(c, p, &Budget::unlimited())
    }

    #[test]
    fn uniform_weights_match_paper_defaults() {
        let w = WeightAssignment::uniform();
        assert_eq!(w.weight(&Predicate::Pc(Var(1), Var(2))), 1.0);
        assert_eq!(w.weight(&Predicate::Ad(Var(1), Var(2))), 1.0);
        assert_eq!(
            w.weight(&Predicate::Contains(Var(1), FtExpr::term("x"))),
            1.0
        );
        assert_eq!(w.weight(&Predicate::Tag(Var(1), "a".into())), 0.0);
    }

    #[test]
    fn base_structural_score_counts_original_edges() {
        let q = q_section();
        let m = PenaltyModel::new(&q, WeightAssignment::uniform());
        assert_eq!(m.base_structural_score(&q), 2.0); // two pc edges
    }

    #[test]
    fn pc_penalty_is_pc_over_ad_ratio() {
        // 3 (section, paragraph) ad pairs, 2 of them pc.
        let c = ctx("<article><section><paragraph>gold</paragraph>\
             <wrap><paragraph>gold</paragraph></wrap>\
             <paragraph>x</paragraph></section></article>");
        let q = q_section();
        let m = PenaltyModel::new(&q, WeightAssignment::uniform());
        let pi = penalty(&m, &c, &Predicate::Pc(Var(2), Var(3)));
        assert!((pi - 2.0 / 3.0).abs() < 1e-12, "got {pi}");
    }

    #[test]
    fn ad_penalty_uses_tag_count_product() {
        // #ad(article, paragraph) = 2, #(article) = 1, #(paragraph) = 2 → 1.0
        let c = ctx("<article><section><paragraph>gold</paragraph><paragraph>x</paragraph></section></article>");
        let q = q_section();
        let m = PenaltyModel::new(&q, WeightAssignment::uniform());
        let pi = penalty(&m, &c, &Predicate::Ad(Var(1), Var(3)));
        assert!((pi - 1.0).abs() < 1e-12, "got {pi}");
    }

    #[test]
    fn contains_penalty_is_count_ratio_to_parent() {
        // 1 paragraph satisfies, 2 sections satisfy → ratio 1/2.
        let c = ctx("<article><section><paragraph>gold</paragraph></section>\
             <section>gold<paragraph>x</paragraph></section></article>");
        let q = q_section();
        let m = PenaltyModel::new(&q, WeightAssignment::uniform());
        let pi = penalty(&m, &c, &Predicate::Contains(Var(3), FtExpr::term("gold")));
        assert!((pi - 0.5).abs() < 1e-12, "got {pi}");
    }

    #[test]
    fn degenerate_statistics_fall_back_to_full_weight() {
        let c = ctx("<article><other/></article>");
        let q = q_section();
        let m = PenaltyModel::new(&q, WeightAssignment::uniform());
        // No (section, paragraph) pairs at all → full weight.
        assert_eq!(penalty(&m, &c, &Predicate::Pc(Var(2), Var(3))), 1.0);
        assert_eq!(penalty(&m, &c, &Predicate::Ad(Var(1), Var(3))), 1.0);
        assert_eq!(
            penalty(&m, &c, &Predicate::Contains(Var(3), FtExpr::term("gold"))),
            1.0
        );
    }

    #[test]
    fn penalties_are_bounded_by_weights() {
        let c = ctx("<article><section><paragraph>gold</paragraph></section></article>");
        let q = q_section();
        let m = PenaltyModel::new(&q, WeightAssignment::uniform());
        for p in q.closure().iter() {
            let pi = penalty(&m, &c, p);
            assert!(
                (0.0..=m.weights().weight(p)).contains(&pi),
                "penalty of {p} out of range: {pi}"
            );
        }
    }

    #[test]
    fn weight_overrides_scale_penalties() {
        let c = ctx("<article><section><paragraph>gold</paragraph></section></article>");
        let q = q_section();
        let pred = Predicate::Pc(Var(1), Var(2));
        let m = PenaltyModel::new(
            &q,
            WeightAssignment::uniform().with_override(pred.clone(), 5.0),
        );
        let pi = penalty(&m, &c, &pred);
        // ratio = 1/1 (only pc pairs), weight 5.
        assert!((pi - 5.0).abs() < 1e-12, "got {pi}");
    }

    #[test]
    fn total_penalty_is_order_invariant() {
        // Theorem 3: the aggregate over a multiset cannot depend on order.
        let c = ctx("<article><section><paragraph>gold</paragraph></section>\
             <section><wrap><paragraph>gold</paragraph></wrap></section></article>");
        let q = q_section();
        let m = PenaltyModel::new(&q, WeightAssignment::uniform());
        let preds: Vec<Predicate> = q.closure().iter().cloned().collect();
        let forward = m.total_penalty(&c, preds.iter());
        let backward = m.total_penalty(&c, preds.iter().rev());
        assert!((forward - backward).abs() < 1e-12);
    }

    #[test]
    fn ranking_scheme_orderings() {
        let a = AnswerScore { ss: 3.0, ks: 0.1 };
        let b = AnswerScore { ss: 2.0, ks: 0.9 };
        use std::cmp::Ordering::*;
        assert_eq!(a.cmp_under(&b, RankingScheme::StructureFirst), Greater);
        assert_eq!(a.cmp_under(&b, RankingScheme::KeywordFirst), Less);
        assert_eq!(a.cmp_under(&b, RankingScheme::Combined), Greater); // 3.1 > 2.9
        let c = AnswerScore { ss: 3.0, ks: 0.2 };
        assert_eq!(a.cmp_under(&c, RankingScheme::StructureFirst), Less); // ks breaks tie
    }
}
