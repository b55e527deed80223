//! The logical (predicate-set) form of a TPQ (paper Figure 2).
//!
//! A TPQ is logically the conjunction of its structural predicates
//! (`pc($i,$j)` / `ad($i,$j)` from the tree edges) with its value-based
//! predicates (`$i.tag = t`, `$i.attr op v`, `contains($i, E)`).
//! [`PredicateSet`] keeps predicates sorted and deduplicated, giving every
//! query a canonical form — the basis for closure comparison, relaxation
//! deduplication, and the order-invariance of scoring.

use crate::ast::{AttrPred, Axis, Tpq, Var};
use flexpath_ftsearch::FtExpr;
use std::fmt;

/// One conjunct of a TPQ's logical expression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Predicate {
    /// `pc($x, $y)` — `$y` is a child of `$x`.
    Pc(Var, Var),
    /// `ad($x, $y)` — `$y` is a (strict) descendant of `$x`.
    Ad(Var, Var),
    /// `$x.tag = name`.
    Tag(Var, Box<str>),
    /// `$x.attr op value`.
    Attr(Var, AttrPred),
    /// `contains($x, expr)`.
    Contains(Var, FtExpr),
}

impl Predicate {
    /// Structural predicates are the `pc`/`ad` conjuncts (the ones carrying
    /// weight in structural scores).
    pub fn is_structural(&self) -> bool {
        matches!(self, Predicate::Pc(..) | Predicate::Ad(..))
    }

    /// All variables mentioned.
    pub fn vars(&self) -> Vec<Var> {
        match self {
            Predicate::Pc(a, b) | Predicate::Ad(a, b) => vec![*a, *b],
            Predicate::Tag(a, _) | Predicate::Attr(a, _) | Predicate::Contains(a, _) => {
                vec![*a]
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Pc(a, b) => write!(f, "pc({a}, {b})"),
            Predicate::Ad(a, b) => write!(f, "ad({a}, {b})"),
            Predicate::Tag(a, t) => write!(f, "{a}.tag = {t}"),
            Predicate::Attr(a, p) => write!(f, "{a}.{p}"),
            Predicate::Contains(a, e) => write!(f, "contains({a}, {e})"),
        }
    }
}

/// A canonical, sorted, duplicate-free set of predicates.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash, PartialOrd, Ord)]
pub struct PredicateSet {
    preds: Vec<Predicate>,
}

impl PredicateSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from arbitrary predicates (sorts + dedups).
    pub fn from_vec(mut preds: Vec<Predicate>) -> Self {
        preds.sort();
        preds.dedup();
        PredicateSet { preds }
    }

    /// Inserts a predicate, returning whether it was new.
    pub fn insert(&mut self, p: Predicate) -> bool {
        match self.preds.binary_search(&p) {
            Ok(_) => false,
            Err(i) => {
                self.preds.insert(i, p);
                true
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, p: &Predicate) -> bool {
        self.preds.binary_search(p).is_ok()
    }

    /// Removes a predicate, returning whether it was present.
    pub fn remove(&mut self, p: &Predicate) -> bool {
        match self.preds.binary_search(p) {
            Ok(i) => {
                self.preds.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Set difference `self − other`.
    pub fn difference(&self, other: &PredicateSet) -> PredicateSet {
        PredicateSet {
            preds: self
                .preds
                .iter()
                .filter(|p| !other.contains(p))
                .cloned()
                .collect(),
        }
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &PredicateSet) -> bool {
        self.preds.iter().all(|p| other.contains(p))
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Predicates in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Predicate> {
        self.preds.iter()
    }

    /// Predicates as a slice.
    pub fn as_slice(&self) -> &[Predicate] {
        &self.preds
    }

    /// The structural (`pc`/`ad`) subset.
    pub fn structural(&self) -> impl Iterator<Item = &Predicate> {
        self.preds.iter().filter(|p| p.is_structural())
    }

    /// All variables mentioned anywhere in the set.
    pub fn vars(&self) -> Vec<Var> {
        let mut vs: Vec<Var> = self.preds.iter().flat_map(|p| p.vars()).collect();
        vs.sort();
        vs.dedup();
        vs
    }
}

impl FromIterator<Predicate> for PredicateSet {
    fn from_iter<T: IntoIterator<Item = Predicate>>(iter: T) -> Self {
        PredicateSet::from_vec(iter.into_iter().collect())
    }
}

impl fmt::Display for PredicateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.preds.iter().map(|p| p.to_string()).collect();
        write!(f, "{}", parts.join(" ∧ "))
    }
}

impl Tpq {
    /// The logical expression of the query (Figure 2): structural edge
    /// predicates plus all value-based predicates.
    pub fn logical(&self) -> PredicateSet {
        let mut preds = Vec::new();
        for node in &self.nodes {
            if let Some(p) = node.parent {
                let pvar = self.nodes[p].var;
                match node.axis {
                    Axis::Child => preds.push(Predicate::Pc(pvar, node.var)),
                    Axis::Descendant => preds.push(Predicate::Ad(pvar, node.var)),
                }
            }
            if let Some(tag) = &node.tag {
                preds.push(Predicate::Tag(node.var, tag.clone()));
            }
            for a in &node.attrs {
                preds.push(Predicate::Attr(node.var, a.clone()));
            }
            for c in &node.contains {
                preds.push(Predicate::Contains(node.var, c.clone()));
            }
        }
        PredicateSet::from_vec(preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::TpqBuilder;

    fn q1() -> Tpq {
        let mut b = TpqBuilder::new("article");
        let s = b.child(0, "section");
        let _a = b.child(s, "algorithm");
        let p = b.child(s, "paragraph");
        b.add_contains(p, FtExpr::all_of(&["XML", "streaming"]));
        b.build()
    }

    #[test]
    fn logical_form_matches_figure_2() {
        let preds = q1().logical();
        // pc(1,2) ∧ pc(2,3) ∧ pc(2,4) ∧ 4 tags ∧ contains(4, …) = 8 conjuncts.
        assert_eq!(preds.len(), 8);
        assert!(preds.contains(&Predicate::Pc(Var(1), Var(2))));
        assert!(preds.contains(&Predicate::Pc(Var(2), Var(3))));
        assert!(preds.contains(&Predicate::Pc(Var(2), Var(4))));
        assert!(preds.contains(&Predicate::Tag(Var(1), "article".into())));
        assert!(preds.contains(&Predicate::Tag(Var(3), "algorithm".into())));
        assert!(preds.contains(&Predicate::Contains(
            Var(4),
            FtExpr::all_of(&["XML", "streaming"])
        )));
        assert_eq!(preds.structural().count(), 3);
    }

    #[test]
    fn predicate_set_is_canonical() {
        let a = PredicateSet::from_vec(vec![
            Predicate::Pc(Var(1), Var(2)),
            Predicate::Tag(Var(1), "a".into()),
            Predicate::Pc(Var(1), Var(2)), // duplicate
        ]);
        let b = PredicateSet::from_vec(vec![
            Predicate::Tag(Var(1), "a".into()),
            Predicate::Pc(Var(1), Var(2)),
        ]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn set_operations() {
        let mut s = PredicateSet::new();
        assert!(s.insert(Predicate::Pc(Var(1), Var(2))));
        assert!(!s.insert(Predicate::Pc(Var(1), Var(2))));
        assert!(s.contains(&Predicate::Pc(Var(1), Var(2))));
        let t: PredicateSet = [Predicate::Pc(Var(1), Var(2)), Predicate::Ad(Var(1), Var(3))]
            .into_iter()
            .collect();
        let diff = t.difference(&s);
        assert_eq!(diff.len(), 1);
        assert!(diff.contains(&Predicate::Ad(Var(1), Var(3))));
        assert!(s.is_subset_of(&t));
        assert!(!t.is_subset_of(&s));
        assert!(s.remove(&Predicate::Pc(Var(1), Var(2))));
        assert!(s.is_empty());
    }

    #[test]
    fn vars_are_collected_sorted() {
        let s: PredicateSet = [Predicate::Ad(Var(3), Var(7)), Predicate::Pc(Var(1), Var(3))]
            .into_iter()
            .collect();
        assert_eq!(s.vars(), vec![Var(1), Var(3), Var(7)]);
    }

    #[test]
    fn contains_predicate_vars() {
        let c = Predicate::Contains(Var(4), FtExpr::term("gold"));
        assert_eq!(c.vars(), vec![Var(4)]);
    }

    #[test]
    fn display_is_paper_like() {
        let p = Predicate::Pc(Var(1), Var(2));
        assert_eq!(p.to_string(), "pc($1, $2)");
        let t = Predicate::Tag(Var(1), "article".into());
        assert_eq!(t.to_string(), "$1.tag = article");
    }
}
