//! Structural occurrence statistics.
//!
//! FleXPath's predicate penalties (Section 4.3.1) and SSO's selectivity
//! estimator (Section 6) are both defined over three document-level counts:
//!
//! * `#(t)` — number of elements with tag `t`;
//! * `#pc(t1, t2)` — number of (parent, child) element pairs tagged `(t1, t2)`;
//! * `#ad(t1, t2)` — number of (ancestor, descendant) element pairs tagged
//!   `(t1, t2)`.
//!
//! [`DocStats::compute`] collects all three in a single pass: `#ad` by
//! walking each element's ancestor chain (documents are shallow — XMark's
//! depth is ≤ 12 — so this is effectively linear).

use crate::document::{Document, NodeId};
use crate::symbols::Sym;
use std::collections::HashMap;

/// An ordered `(ancestor-side, descendant-side)` tag pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagPair(pub Sym, pub Sym);

/// Immutable occurrence counts for one document.
#[derive(Debug, Clone, Default)]
pub struct DocStats {
    // pub(crate) so the persistent-store codec (`crate::codec`) can
    // serialize and reconstruct the maps without an intermediate copy.
    pub(crate) tag_counts: HashMap<Sym, u64>,
    pub(crate) pc_counts: HashMap<TagPair, u64>,
    pub(crate) ad_counts: HashMap<TagPair, u64>,
    pub(crate) element_total: u64,
}

impl DocStats {
    /// Collects statistics from `doc` in one pass.
    pub fn compute(doc: &Document) -> Self {
        let mut stats = DocStats::default();
        let mut anc_tags: Vec<Sym> = Vec::with_capacity(32);
        // `anc_stack` mirrors the element ancestor chain of the node being
        // visited; document order visitation keeps it consistent.
        let mut anc_stack: Vec<NodeId> = Vec::with_capacity(32);
        for n in doc.all_nodes() {
            let Some(tag) = doc.tag(n) else { continue };
            // Pop ancestors that do not contain `n`.
            while let Some(&top) = anc_stack.last() {
                if doc.is_ancestor(top, n) {
                    break;
                }
                anc_stack.pop();
                anc_tags.pop();
            }
            stats.element_total += 1;
            *stats.tag_counts.entry(tag).or_insert(0) += 1;
            // `anc_tags` parallels `anc_stack`, so its last entry is the
            // parent's tag — no re-lookup (or unwrap) needed.
            if let Some(&ptag) = anc_tags.last() {
                *stats.pc_counts.entry(TagPair(ptag, tag)).or_insert(0) += 1;
            }
            for &atag in &anc_tags {
                *stats.ad_counts.entry(TagPair(atag, tag)).or_insert(0) += 1;
            }
            anc_stack.push(n);
            anc_tags.push(tag);
        }
        stats
    }

    /// `#(t)`: number of elements tagged `t`.
    pub fn tag_count(&self, t: Sym) -> u64 {
        self.tag_counts.get(&t).copied().unwrap_or(0)
    }

    /// `#pc(t1, t2)`: parent-child pairs.
    pub fn pc_count(&self, parent: Sym, child: Sym) -> u64 {
        self.pc_counts
            .get(&TagPair(parent, child))
            .copied()
            .unwrap_or(0)
    }

    /// `#ad(t1, t2)`: ancestor-descendant pairs.
    pub fn ad_count(&self, anc: Sym, desc: Sym) -> u64 {
        self.ad_counts
            .get(&TagPair(anc, desc))
            .copied()
            .unwrap_or(0)
    }

    /// Total number of elements in the document.
    pub fn element_total(&self) -> u64 {
        self.element_total
    }

    /// Iterates all distinct tags that occur in the document.
    pub fn tags(&self) -> impl Iterator<Item = Sym> + '_ {
        self.tag_counts.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn sym(doc: &Document, name: &str) -> Sym {
        doc.symbols().lookup(name).unwrap()
    }

    #[test]
    fn counts_match_hand_computation() {
        // a
        // ├── b ── c
        // └── b ── b ── c
        let doc = parse("<a><b><c/></b><b><b><c/></b></b></a>").unwrap();
        let s = DocStats::compute(&doc);
        let (a, b, c) = (sym(&doc, "a"), sym(&doc, "b"), sym(&doc, "c"));
        assert_eq!(s.tag_count(a), 1);
        assert_eq!(s.tag_count(b), 3);
        assert_eq!(s.tag_count(c), 2);
        assert_eq!(s.element_total(), 6);
        assert_eq!(s.pc_count(a, b), 2);
        assert_eq!(s.pc_count(b, c), 2);
        assert_eq!(s.pc_count(b, b), 1);
        assert_eq!(s.pc_count(a, c), 0);
        assert_eq!(s.ad_count(a, b), 3);
        assert_eq!(s.ad_count(a, c), 2);
        assert_eq!(s.ad_count(b, c), 3); // (b1,c1), (b2,c2) via b3, (b3,c2)
        assert_eq!(s.ad_count(b, b), 1);
    }

    #[test]
    fn pc_is_bounded_by_ad() {
        let doc = parse("<r><x><y/><y><x><y/></x></y></x><x/><z><x><z/></x></z></r>").unwrap();
        let s = DocStats::compute(&doc);
        let tags: Vec<Sym> = s.tags().collect();
        for &t1 in &tags {
            for &t2 in &tags {
                assert!(
                    s.pc_count(t1, t2) <= s.ad_count(t1, t2),
                    "pc must imply ad for pair ({t1}, {t2})"
                );
            }
        }
    }

    #[test]
    fn ad_count_bounded_by_product_of_tag_counts() {
        let doc = parse("<r><a><b/><b/></a><a><b/></a></r>").unwrap();
        let s = DocStats::compute(&doc);
        let (a, b) = (sym(&doc, "a"), sym(&doc, "b"));
        assert!(s.ad_count(a, b) <= s.tag_count(a) * s.tag_count(b));
        assert_eq!(s.ad_count(a, b), 3);
    }

    #[test]
    fn text_nodes_are_ignored() {
        let doc = parse("<a>text<b>more</b></a>").unwrap();
        let s = DocStats::compute(&doc);
        assert_eq!(s.element_total(), 2);
    }

    #[test]
    fn unknown_tags_count_zero() {
        let doc = parse("<a/>").unwrap();
        let s = DocStats::compute(&doc);
        assert_eq!(s.tag_count(Sym(99)), 0);
        assert_eq!(s.pc_count(Sym(0), Sym(99)), 0);
    }
}
