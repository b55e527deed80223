//! Fixtures shared by the engine's unit tests: the paper's Example 1 query
//! and small article corpora that grade from exact match to keyword-only.

#![cfg(test)]

use crate::context::EngineContext;
use crate::score::{PenaltyModel, WeightAssignment};
use flexpath_ftsearch::FtExpr;
use flexpath_tpq::{Tpq, TpqBuilder};
use flexpath_xmldom::parse;

/// `a0` matches [`q1`] exactly; `a1`–`a3` match ever looser relaxations;
/// `a4` never satisfies the `contains`.
pub(crate) const ARTICLES: &str = "<site>\
    <article id=\"a0\"><section><algorithm>x</algorithm>\
      <paragraph>XML streaming</paragraph></section></article>\
    <article id=\"a1\"><section><title>XML streaming</title>\
      <algorithm>y</algorithm><paragraph>other</paragraph></section></article>\
    <article id=\"a2\"><section><wrap><paragraph>XML streaming</paragraph></wrap>\
      </section><algorithm>z</algorithm></article>\
    <article id=\"a3\"><note>XML streaming</note></article>\
    <article id=\"a4\"><section><paragraph>nothing here</paragraph></section></article>\
    </site>";

/// One exact match and one match that needs the `pc(section, paragraph)`
/// edge relaxed.
pub(crate) const TWO_ARTICLES: &str = "<site><article><section><algorithm>x</algorithm>\
    <paragraph>XML streaming</paragraph></section></article>\
    <article><section><wrap><paragraph>XML streaming</paragraph></wrap>\
    </section></article></site>";

/// Q1 of the paper's Example 1:
/// `//article[./section[./algorithm and ./paragraph[.contains("XML" and "streaming")]]]`.
pub(crate) fn q1() -> Tpq {
    let mut b = TpqBuilder::new("article");
    let s = b.child(0, "section");
    let _a = b.child(s, "algorithm");
    let p = b.child(s, "paragraph");
    b.add_contains(p, FtExpr::all_of(&["XML", "streaming"]));
    b.build()
}

/// A context over `xml` plus the uniform-weight penalty model of `q`.
pub(crate) fn setup(xml: &str, q: &Tpq) -> (EngineContext, PenaltyModel) {
    let ctx = EngineContext::new(parse(xml).unwrap());
    let model = PenaltyModel::new(q, WeightAssignment::uniform());
    (ctx, model)
}
