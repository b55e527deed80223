//! Exhaustive enumeration of a query's relaxation space.
//!
//! The *space of relaxations* of a TPQ (paper Section 3.3) is the query
//! itself plus every query reachable by composing the four operators.
//! Enumeration is a BFS over operator applications with canonical-form
//! deduplication (two derivation paths that reach the same closure and
//! distinguished variable are one relaxation — this is what makes scoring
//! order-invariant).
//!
//! DPO and SSO never materialize this space — they walk predicate drops in
//! penalty order — but the explorer examples, the theory property tests,
//! and `flexpath-bench`'s rewriting-enumeration baseline do.

use flexpath_tpq::{applicable_ops, apply_op, closure_of, PredicateSet, RelaxOp, Tpq, Var};
use std::collections::HashMap;

/// One point of the relaxation space.
#[derive(Debug, Clone)]
pub struct SpaceEntry {
    /// The (relaxed) query.
    pub tpq: Tpq,
    /// Operators applied from the original query, in order (one shortest
    /// derivation; others may exist).
    pub ops: Vec<RelaxOp>,
    /// `close(original) − close(tpq)`: the cumulative dropped predicates.
    pub dropped: PredicateSet,
}

/// The enumerated space. Entry 0 is always the original query.
#[derive(Debug, Clone)]
pub struct RelaxationSpace {
    /// Entries in BFS (derivation-length) order.
    pub entries: Vec<SpaceEntry>,
    /// Whether enumeration stopped early at the state cap.
    pub truncated: bool,
}

impl RelaxationSpace {
    /// Number of distinct relaxations (including the original).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the space is empty (never: the original is always present).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Enumerates the relaxation space of `q`, visiting at most `max_states`
/// distinct relaxations (BFS order, so the least-relaxed queries survive a
/// truncation).
pub fn enumerate_space(q: &Tpq, max_states: usize) -> RelaxationSpace {
    let original_closure = closure_of(&q.logical());
    let key =
        |t: &Tpq| -> (PredicateSet, Var) { (closure_of(&t.logical()), t.distinguished_var()) };
    let mut seen: HashMap<(PredicateSet, Var), usize> = HashMap::new();
    let mut entries: Vec<SpaceEntry> = Vec::new();
    let mut truncated = false;

    seen.insert(key(q), 0);
    entries.push(SpaceEntry {
        tpq: q.clone(),
        ops: Vec::new(),
        dropped: PredicateSet::new(),
    });

    let mut frontier = 0usize;
    while frontier < entries.len() {
        let current = entries[frontier].clone();
        frontier += 1;
        for op in applicable_ops(&current.tpq) {
            let Ok(next) = apply_op(&current.tpq, &op) else {
                continue;
            };
            let k = key(&next);
            if seen.contains_key(&k) {
                continue;
            }
            if entries.len() >= max_states {
                truncated = true;
                continue;
            }
            let dropped = original_closure.difference(&k.0);
            seen.insert(k, entries.len());
            let mut ops = current.ops.clone();
            ops.push(op);
            entries.push(SpaceEntry {
                tpq: next,
                ops,
                dropped,
            });
        }
    }
    RelaxationSpace { entries, truncated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::contains_query;
    use flexpath_ftsearch::FtExpr;
    use flexpath_tpq::TpqBuilder;

    fn q1() -> Tpq {
        let mut b = TpqBuilder::new("article");
        let s = b.child(0, "section");
        let _a = b.child(s, "algorithm");
        let p = b.child(s, "paragraph");
        b.add_contains(p, FtExpr::all_of(&["XML", "streaming"]));
        b.build()
    }

    #[test]
    fn space_starts_with_the_original() {
        let space = enumerate_space(&q1(), 1000);
        assert!(space.entries[0].ops.is_empty());
        assert!(space.entries[0].dropped.is_empty());
        assert_eq!(space.entries[0].tpq.logical(), q1().logical());
    }

    #[test]
    fn space_contains_the_figure_1_relaxations() {
        // Q2…Q6 of Figure 1 must all appear in the space of Q1.
        let space = enumerate_space(&q1(), 10_000);
        assert!(!space.truncated);
        let ft = FtExpr::all_of(&["XML", "streaming"]);
        let mut shapes: Vec<Tpq> = Vec::new();
        {
            // Q2
            let mut b = TpqBuilder::new("article");
            let s = b.child(0, "section");
            let _a = b.child(s, "algorithm");
            let _p = b.child(s, "paragraph");
            b.add_contains(s, ft.clone());
            shapes.push(b.build());
            // Q3
            let mut b = TpqBuilder::new("article");
            let _a = b.descendant(0, "algorithm");
            let s = b.child(0, "section");
            let p = b.child(s, "paragraph");
            b.add_contains(p, ft.clone());
            shapes.push(b.build());
            // Q5
            let mut b = TpqBuilder::new("article");
            let s = b.child(0, "section");
            let _p = b.child(s, "paragraph");
            b.add_contains(s, ft.clone());
            shapes.push(b.build());
            // Q6
            let mut b = TpqBuilder::new("article");
            b.add_contains(0, ft.clone());
            shapes.push(b.build());
        }
        for (i, target) in shapes.iter().enumerate() {
            let found = space
                .entries
                .iter()
                .any(|e| contains_query(&e.tpq, target) && contains_query(target, &e.tpq));
            assert!(found, "figure-1 relaxation #{i} not found in space");
        }
    }

    #[test]
    fn all_entries_are_sound_relaxations() {
        let q = q1();
        let space = enumerate_space(&q, 10_000);
        for e in &space.entries {
            assert!(
                contains_query(&q, &e.tpq),
                "entry via {:?} does not contain the original",
                e.ops
            );
        }
    }

    #[test]
    fn dropped_grows_along_derivations() {
        let space = enumerate_space(&q1(), 10_000);
        for e in &space.entries[1..] {
            assert!(!e.dropped.is_empty(), "non-trivial entries drop something");
            assert!(!e.ops.is_empty());
        }
    }

    #[test]
    fn enumeration_deduplicates_diamond_paths() {
        // γ($2) then κ($4) equals κ($4) then γ($2): one entry, not two.
        let space = enumerate_space(&q1(), 10_000);
        let keys: Vec<_> = space
            .entries
            .iter()
            .map(|e| (closure_of(&e.tpq.logical()), e.tpq.distinguished_var()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "duplicate states in space");
    }

    #[test]
    fn truncation_respects_cap() {
        let space = enumerate_space(&q1(), 3);
        assert_eq!(space.len(), 3);
        assert!(space.truncated);
    }

    #[test]
    fn single_node_query_space_is_singleton_or_small() {
        let q = TpqBuilder::new("a").build();
        let space = enumerate_space(&q, 100);
        assert_eq!(space.len(), 1);
    }
}
