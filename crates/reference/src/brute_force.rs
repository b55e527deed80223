//! A deliberately naive tree-pattern matcher: the independent reference
//! the encoded evaluator is checked against (`tests/relaxation_oracle.rs`
//! and `crates/engine/src/exec.rs`'s unit tests).
//!
//! It shares nothing with `flexpath-engine`: no interval labels, no tag
//! lists, no full-text index. Edges are decided by walking `parent`
//! pointers, `contains` by tokenizing the subtree's text, embeddings by
//! trying every element of the document for every query node.

use flexpath_ftsearch::{stem, tokenize, FtExpr};
use flexpath_tpq::{Axis, Tpq};
use flexpath_xmldom::{Document, NodeId};

/// The exact answers of `q` over `doc`: every binding of the distinguished
/// node that extends to a full embedding, in document order.
pub fn naive_exact_answers(doc: &Document, q: &Tpq) -> Vec<NodeId> {
    let dist = q.distinguished();
    doc.elements()
        .filter(|&x| {
            doc.elements()
                .any(|r| embeds(doc, q, q.root(), r, (dist, x)))
        })
        .collect()
}

/// Can query node `idx` bind to `d` with its whole subtree embedded below,
/// the node `pin.0` bound to exactly `pin.1`?
fn embeds(doc: &Document, q: &Tpq, idx: usize, d: NodeId, pin: (usize, NodeId)) -> bool {
    let node = q.node(idx);
    if pin.0 == idx && pin.1 != d {
        return false;
    }
    if node
        .tag
        .as_deref()
        .is_some_and(|t| doc.tag_name(d) != Some(t))
    {
        return false;
    }
    let attrs_hold = node.attrs.iter().all(|a| {
        let actual = doc
            .symbols()
            .lookup(&a.name)
            .and_then(|sym| doc.attribute(d, sym));
        a.eval(actual)
    });
    if !attrs_hold || !node.contains.iter().all(|e| text_satisfies(doc, d, e)) {
        return false;
    }
    q.children(idx).into_iter().all(|c| {
        doc.elements().any(|e| {
            let related = match q.node(c).axis {
                Axis::Child => doc.parent(e) == Some(d),
                Axis::Descendant => is_below(doc, e, d),
            };
            related && embeds(doc, q, c, e, pin)
        })
    })
}

/// Is `d` a proper ancestor of `e`? Decided by walking up from `e`.
fn is_below(doc: &Document, e: NodeId, d: NodeId) -> bool {
    let mut cur = doc.parent(e);
    while let Some(p) = cur {
        if p == d {
            return true;
        }
        cur = doc.parent(p);
    }
    false
}

/// Does the text below (or at) `n` satisfy `expr`? Terms, conjunctions and
/// disjunctions only — the shapes the oracle generates.
fn text_satisfies(doc: &Document, n: NodeId, expr: &FtExpr) -> bool {
    match expr {
        FtExpr::Term(t) => tokenize(&doc.subtree_text(n))
            .iter()
            .any(|tok| stem(tok) == *t),
        FtExpr::And(parts) => parts.iter().all(|p| text_satisfies(doc, n, p)),
        FtExpr::Or(parts) => parts.iter().any(|p| text_satisfies(doc, n, p)),
        other => panic!("brute-force matcher does not model {other:?}"),
    }
}
