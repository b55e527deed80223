//! Query containment checking.
//!
//! Containment (`Q ⊆ Q'` iff `Q(D) ⊆ Q'(D)` for every database `D`) is "at
//! the heart of relaxation" (Section 2.1): every relaxation strictly
//! contains the query it was derived from. The check is by *homomorphism*:
//! `Q ⊆ Q'` iff there is a mapping `h` from the nodes of `Q'` to the nodes
//! of `Q` that maps the distinguished node to the distinguished node,
//! preserves pc-edges as pc-edges, maps ad-edges to ancestor paths, and maps
//! every value-based predicate to one implied by `Q`'s closure.
//!
//! For the tree-pattern fragment used throughout the paper (`/`, `//`,
//! branching, tags — no wildcard interaction), the homomorphism criterion is
//! both sound and complete; with wildcards it remains sound. Queries are
//! tiny, so the backtracking search is exponential-in-theory, instant in
//! practice.

use flexpath_tpq::{Axis, Predicate, PredicateSet, Tpq};

/// Returns `true` when `sub ⊆ sup` (every answer of `sub` is an answer of
/// `sup`, on every document).
pub fn contains_query(sub: &Tpq, sup: &Tpq) -> bool {
    // Homomorphism h : nodes(sup) → nodes(sub).
    let sub_closure = sub.closure();
    let mut assignment: Vec<Option<usize>> = vec![None; sup.node_count()];
    // Map the distinguished nodes together up front.
    assignment[sup.distinguished()] = Some(sub.distinguished());
    if !node_compatible(
        sub,
        sup,
        sup.distinguished(),
        sub.distinguished(),
        &sub_closure,
    ) {
        return false;
    }
    search(sub, sup, 0, &mut assignment, &sub_closure)
}

/// Checks the per-node (non-edge) constraints of mapping `sup_idx ↦ sub_idx`.
fn node_compatible(
    sub: &Tpq,
    sup: &Tpq,
    sup_idx: usize,
    sub_idx: usize,
    sub_closure: &PredicateSet,
) -> bool {
    let sn = sup.node(sup_idx);
    let tn = sub.node(sub_idx);
    if let Some(tag) = &sn.tag {
        if tn.tag.as_deref() != Some(tag.as_ref()) {
            return false;
        }
    }
    for a in &sn.attrs {
        // Sound approximation: require the identical attribute predicate.
        if !tn.attrs.contains(a) {
            return false;
        }
    }
    for c in &sn.contains {
        if !sub_closure.contains(&Predicate::Contains(tn.var, c.clone())) {
            return false;
        }
    }
    true
}

/// Is `anc_idx` a (strict) ancestor of `idx` in `q`'s tree?
fn is_tree_ancestor(q: &Tpq, anc_idx: usize, idx: usize) -> bool {
    let mut cur = q.node(idx).parent;
    while let Some(p) = cur {
        if p == anc_idx {
            return true;
        }
        cur = q.node(p).parent;
    }
    false
}

fn search(
    sub: &Tpq,
    sup: &Tpq,
    next: usize,
    assignment: &mut Vec<Option<usize>>,
    sub_closure: &PredicateSet,
) -> bool {
    // Find the next unassigned sup node (pre-order: parents come first).
    let Some(sup_idx) = (next..sup.node_count()).find(|&i| assignment[i].is_none()) else {
        return true;
    };
    for cand in 0..sub.node_count() {
        if !node_compatible(sub, sup, sup_idx, cand, sub_closure) {
            continue;
        }
        // Edge constraint to the (already assigned) parent.
        if let Some(p) = sup.node(sup_idx).parent {
            let hp = assignment[p].expect("pre-order guarantees parent assigned");
            let ok = match sup.node(sup_idx).axis {
                Axis::Child => {
                    sub.node(cand).parent == Some(hp) && sub.node(cand).axis == Axis::Child
                }
                Axis::Descendant => is_tree_ancestor(sub, hp, cand),
            };
            if !ok {
                continue;
            }
        }
        assignment[sup_idx] = Some(cand);
        if search(sub, sup, sup_idx + 1, assignment, sub_closure) {
            return true;
        }
        assignment[sup_idx] = None;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpath_ftsearch::FtExpr;
    use flexpath_tpq::TpqBuilder;

    fn ft() -> FtExpr {
        FtExpr::all_of(&["XML", "streaming"])
    }

    /// The six queries of Figure 1.
    fn q1() -> Tpq {
        let mut b = TpqBuilder::new("article");
        let s = b.child(0, "section");
        let _a = b.child(s, "algorithm");
        let p = b.child(s, "paragraph");
        b.add_contains(p, ft());
        b.build()
    }

    fn q2() -> Tpq {
        let mut b = TpqBuilder::new("article");
        let s = b.child(0, "section");
        let _a = b.child(s, "algorithm");
        let _p = b.child(s, "paragraph");
        b.add_contains(s, ft());
        b.build()
    }

    fn q3() -> Tpq {
        let mut b = TpqBuilder::new("article");
        let _a = b.descendant(0, "algorithm");
        let s = b.child(0, "section");
        let p = b.child(s, "paragraph");
        b.add_contains(p, ft());
        b.build()
    }

    fn q4() -> Tpq {
        let mut b = TpqBuilder::new("article");
        let _a = b.descendant(0, "algorithm");
        let s = b.child(0, "section");
        let _p = b.child(s, "paragraph");
        b.add_contains(s, ft());
        b.build()
    }

    fn q5() -> Tpq {
        let mut b = TpqBuilder::new("article");
        let s = b.child(0, "section");
        let _p = b.child(s, "paragraph");
        b.add_contains(s, ft());
        b.build()
    }

    fn q6() -> Tpq {
        let mut b = TpqBuilder::new("article");
        b.add_contains(0, ft());
        b.build()
    }

    #[test]
    fn figure_1_containment_lattice() {
        // Q1 ⊂ Q2, Q1 ⊂ Q3, Q2 ⊂ Q4, Q3 ⊂ Q4, Q4 ⊂ Q5, all ⊂ Q6.
        assert!(contains_query(&q1(), &q2()));
        assert!(contains_query(&q1(), &q3()));
        assert!(contains_query(&q2(), &q4()));
        assert!(contains_query(&q3(), &q4()));
        assert!(contains_query(&q4(), &q5()));
        for q in [q1(), q2(), q3(), q4(), q5()] {
            assert!(contains_query(&q, &q6()), "{q} should be ⊆ Q6");
        }
    }

    #[test]
    fn containment_is_not_symmetric_for_strict_relaxations() {
        assert!(!contains_query(&q2(), &q1()));
        assert!(!contains_query(&q3(), &q1()));
        assert!(!contains_query(&q6(), &q1()));
    }

    #[test]
    fn q2_and_q3_are_incomparable() {
        assert!(!contains_query(&q2(), &q3()));
        assert!(!contains_query(&q3(), &q2()));
    }

    #[test]
    fn every_query_contains_itself() {
        for q in [q1(), q2(), q3(), q4(), q5(), q6()] {
            assert!(contains_query(&q, &q), "{q} ⊆ itself");
        }
    }

    #[test]
    fn different_tags_are_incomparable() {
        let a = TpqBuilder::new("article").build();
        let b = TpqBuilder::new("book").build();
        assert!(!contains_query(&a, &b));
        assert!(!contains_query(&b, &a));
    }

    #[test]
    fn pc_edge_is_contained_in_ad_edge() {
        let mut b = TpqBuilder::new("a");
        b.child(0, "b");
        let pc = b.build();
        let mut b = TpqBuilder::new("a");
        b.descendant(0, "b");
        let ad = b.build();
        assert!(contains_query(&pc, &ad));
        assert!(!contains_query(&ad, &pc));
    }

    #[test]
    fn dropping_a_branch_relaxes() {
        let mut b = TpqBuilder::new("a");
        b.child(0, "b");
        b.child(0, "c");
        let both = b.build();
        let mut b = TpqBuilder::new("a");
        b.child(0, "b");
        let one = b.build();
        assert!(contains_query(&both, &one));
        assert!(!contains_query(&one, &both));
    }

    #[test]
    fn contains_predicate_relaxation_respects_closure() {
        // contains at paragraph implies contains at section: Q1 ⊆ Q2 even
        // though the predicate sits on a different node.
        assert!(contains_query(&q1(), &q2()));
        // But a query requiring contains at the paragraph is NOT implied by
        // one requiring it only at the section.
        assert!(!contains_query(&q5(), &q1()));
    }

    #[test]
    fn distinguished_node_must_correspond() {
        // Same tree, different distinguished node → incomparable.
        let mut b = TpqBuilder::new("a");
        let c = b.child(0, "b");
        b.set_distinguished(c);
        let answers_b = b.build();
        let mut b2 = TpqBuilder::new("a");
        b2.child(0, "b");
        let answers_a = b2.build();
        assert!(!contains_query(&answers_a, &answers_b));
        assert!(!contains_query(&answers_b, &answers_a));
    }

    #[test]
    fn wildcard_relaxes_tag() {
        let mut b = TpqBuilder::new("a");
        b.child(0, "b");
        let tagged = b.build();
        let mut b = TpqBuilder::new("a");
        b.wildcard(0, Axis::Child);
        let wild = b.build();
        assert!(contains_query(&tagged, &wild));
        assert!(!contains_query(&wild, &tagged));
    }
}
