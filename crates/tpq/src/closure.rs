//! Closure computation under the inference rules of Figure 3:
//!
//! ```text
//! pc($x,$y)                      ⊢ ad($x,$y)
//! ad($x,$y), ad($y,$z)           ⊢ ad($x,$z)
//! ad($x,$y), contains($y, E)     ⊢ contains($x, E)
//! ```
//!
//! The closure of a TPQ is its logical expression conjoined with every
//! predicate derivable by these rules. It is equivalent to the query and
//! unique; structural relaxations are defined as predicate subsets of the
//! closure (Definition 1), which is why this module is the foundation of
//! the whole relaxation machinery.

use crate::ast::Tpq;
use crate::logical::{Predicate, PredicateSet};

/// Computes the closure of a predicate set (fixpoint of the three rules).
///
/// The rules only ever derive facts expressible over the *reachability
/// relation* of the `pc`/`ad` edges, so instead of a literal fixpoint over
/// growing predicate vectors the closure is computed on dense `u64`
/// adjacency bitsets (one per distinct variable) and materialized once:
/// `O(V²·V/64)` bit operations plus a single sort, versus the naive
/// quadratic re-scan per fixpoint round. A query pays for it once (schedule
/// construction takes the original closure and then decides each candidate
/// operator's drops on the relaxed tree); the core computation (`core.rs`)
/// and `flexpath-reference`'s relaxation-space enumeration call it
/// repeatedly.
/// Sets mentioning more than 64 distinct variables fall back to the naive
/// fixpoint (queries are arity-sized; this is a safety hatch, not an
/// expected path).
pub fn closure_of(preds: &PredicateSet) -> PredicateSet {
    // Dense var ↦ index mapping.
    let mut vars: Vec<crate::ast::Var> = Vec::new();
    for p in preds.iter() {
        for v in p.vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    if vars.len() > 64 {
        return closure_naive(preds);
    }
    vars.sort_unstable();
    let idx = |v: crate::ast::Var| vars.binary_search(&v).expect("var collected above");

    // desc[i] = bitset of variables strictly below i via pc/ad edges.
    let mut desc = vec![0u64; vars.len()];
    for p in preds.iter() {
        if let Predicate::Pc(x, y) | Predicate::Ad(x, y) = p {
            desc[idx(*x)] |= 1u64 << idx(*y);
        }
    }
    // Transitive closure: propagate descendant sets to fixpoint. Converges
    // in O(depth) rounds; each round is V popcount-guided unions.
    loop {
        let mut changed = false;
        for i in 0..desc.len() {
            let mut acc = desc[i];
            let mut m = desc[i];
            while m != 0 {
                let j = m.trailing_zeros() as usize;
                m &= m - 1;
                acc |= desc[j];
            }
            if acc != desc[i] {
                desc[i] = acc;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Materialize: originals + every derived ad + contains propagated to
    // all ancestors, deduped by one sort.
    let mut out: Vec<Predicate> = preds.iter().cloned().collect();
    for (i, &d) in desc.iter().enumerate() {
        let mut m = d;
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            m &= m - 1;
            if i != j {
                out.push(Predicate::Ad(vars[i], vars[j]));
            }
        }
    }
    for p in preds.iter() {
        if let Predicate::Contains(y, e) = p {
            let yi = idx(*y);
            for (i, &d) in desc.iter().enumerate() {
                if d & (1u64 << yi) != 0 {
                    out.push(Predicate::Contains(vars[i], e.clone()));
                }
            }
        }
    }
    PredicateSet::from_vec(out)
}

/// The literal Figure-3 fixpoint, kept as the >64-variable fallback and as
/// the oracle the fast path is property-tested against.
fn closure_naive(preds: &PredicateSet) -> PredicateSet {
    let mut out = preds.clone();
    loop {
        let mut new: Vec<Predicate> = Vec::new();
        // Rule 1: pc ⊢ ad.
        for p in out.iter() {
            if let Predicate::Pc(x, y) = p {
                let d = Predicate::Ad(*x, *y);
                if !out.contains(&d) {
                    new.push(d);
                }
            }
        }
        // Rule 2: ad transitivity.
        let ads: Vec<(crate::ast::Var, crate::ast::Var)> = out
            .iter()
            .filter_map(|p| match p {
                Predicate::Ad(x, y) => Some((*x, *y)),
                _ => None,
            })
            .collect();
        for &(x, y) in &ads {
            for &(y2, z) in &ads {
                if y == y2 && x != z {
                    let d = Predicate::Ad(x, z);
                    if !out.contains(&d) {
                        new.push(d);
                    }
                }
            }
        }
        // Rule 3: contains propagates to ancestors.
        let contains: Vec<(crate::ast::Var, flexpath_ftsearch::FtExpr)> = out
            .iter()
            .filter_map(|p| match p {
                Predicate::Contains(y, e) => Some((*y, e.clone())),
                _ => None,
            })
            .collect();
        for &(x, y) in &ads {
            for (cy, e) in &contains {
                if y == *cy {
                    let d = Predicate::Contains(x, e.clone());
                    if !out.contains(&d) {
                        new.push(d);
                    }
                }
            }
        }
        if new.is_empty() {
            return out;
        }
        for p in new {
            out.insert(p);
        }
    }
}

impl Tpq {
    /// The closure of this query's logical expression (Figure 4 for Q1).
    pub fn closure(&self) -> PredicateSet {
        closure_of(&self.logical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Tpq, TpqBuilder, Var};
    use flexpath_ftsearch::FtExpr;

    fn q1() -> Tpq {
        let mut b = TpqBuilder::new("article");
        let s = b.child(0, "section");
        let _a = b.child(s, "algorithm");
        let p = b.child(s, "paragraph");
        b.add_contains(p, FtExpr::all_of(&["XML", "streaming"]));
        b.build()
    }

    #[test]
    fn closure_of_q1_matches_figure_4() {
        // Figure 4: logical(Q1) plus ad(1,2) ad(2,3) ad(2,4) ad(1,3) ad(1,4)
        // plus contains(2, E) and contains(1, E).
        let c = q1().closure();
        let e = FtExpr::all_of(&["XML", "streaming"]);
        for p in [
            Predicate::Pc(Var(1), Var(2)),
            Predicate::Pc(Var(2), Var(3)),
            Predicate::Pc(Var(2), Var(4)),
            Predicate::Ad(Var(1), Var(2)),
            Predicate::Ad(Var(2), Var(3)),
            Predicate::Ad(Var(2), Var(4)),
            Predicate::Ad(Var(1), Var(3)),
            Predicate::Ad(Var(1), Var(4)),
            Predicate::Contains(Var(4), e.clone()),
            Predicate::Contains(Var(2), e.clone()),
            Predicate::Contains(Var(1), e.clone()),
        ] {
            assert!(c.contains(&p), "closure missing {p}");
        }
        // 8 original + 5 derived ad + 2 derived contains = 15.
        assert_eq!(c.len(), 15);
    }

    #[test]
    fn closure_is_idempotent() {
        let c = q1().closure();
        assert_eq!(closure_of(&c), c);
    }

    #[test]
    fn closure_is_monotone() {
        let full = q1().logical();
        let mut smaller = full.clone();
        smaller.remove(&Predicate::Pc(Var(2), Var(3)));
        let c_small = closure_of(&smaller);
        let c_full = closure_of(&full);
        assert!(c_small.is_subset_of(&c_full));
    }

    #[test]
    fn deep_chain_derives_all_transitive_ads() {
        // a/b/c/d: ad pairs = C(4,2) = 6.
        let mut b = TpqBuilder::new("a");
        let x = b.child(0, "b");
        let y = b.child(x, "c");
        let _z = b.child(y, "d");
        let c = b.build().closure();
        let ads = c.iter().filter(|p| matches!(p, Predicate::Ad(..))).count();
        assert_eq!(ads, 6);
    }

    #[test]
    fn contains_propagates_through_descendant_edges() {
        let mut b = TpqBuilder::new("a");
        let x = b.descendant(0, "b");
        b.add_contains(x, FtExpr::term("gold"));
        let c = b.build().closure();
        assert!(c.contains(&Predicate::Contains(Var(1), FtExpr::term("gold"))));
    }

    #[test]
    fn bitset_closure_matches_naive_fixpoint_on_random_sets() {
        // Property: the bitset fast path and the literal Figure-3 fixpoint
        // agree on arbitrary (even non-tree) predicate sets. Deterministic
        // LCG so failures reproduce.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |m: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % m
        };
        for _ in 0..200 {
            let nvars = 2 + next(8);
            let nedges = 1 + next(12);
            let mut preds = Vec::new();
            for _ in 0..nedges {
                let x = Var(next(nvars));
                let y = Var(next(nvars));
                if x == y {
                    continue;
                }
                preds.push(if next(2) == 0 {
                    Predicate::Pc(x, y)
                } else {
                    Predicate::Ad(x, y)
                });
            }
            if next(2) == 0 {
                preds.push(Predicate::Contains(Var(next(nvars)), FtExpr::term("gold")));
            }
            let set = PredicateSet::from_vec(preds);
            assert_eq!(
                closure_of(&set),
                closure_naive(&set),
                "fast/naive closure divergence on {set:?}"
            );
        }
    }

    #[test]
    fn closure_of_edgeless_query_adds_nothing_structural() {
        let b = TpqBuilder::new("a");
        let q = b.build();
        let c = q.closure();
        assert_eq!(c, q.logical());
    }

    #[test]
    fn multiple_contains_each_propagate() {
        let mut b = TpqBuilder::new("a");
        let x = b.child(0, "b");
        b.add_contains(x, FtExpr::term("gold"));
        b.add_contains(x, FtExpr::term("silver"));
        let c = b.build().closure();
        assert!(c.contains(&Predicate::Contains(Var(1), FtExpr::term("gold"))));
        assert!(c.contains(&Predicate::Contains(Var(1), FtExpr::term("silver"))));
    }
}
