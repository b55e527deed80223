//! The four primitive relaxation operators (paper Section 3.5).
//!
//! * **Axis generalization** `γ_pc(x,y)` — replace a pc-edge by an ad-edge.
//! * **Leaf deletion** `λ_x` — delete a leaf node (never the root); if the
//!   leaf was distinguished, its parent becomes distinguished.
//! * **Subtree promotion** `σ_x` — re-anchor the subtree rooted at `x` under
//!   `x`'s grandparent with an ad-edge.
//! * **`contains` promotion** `κ_x` — move a `contains` predicate from `x`
//!   to `x`'s parent.
//!
//! Theorem 2 (soundness and completeness): every composition of these
//! operators is a valid relaxation, and every valid relaxation is reachable
//! by finitely many applications. `tests/prop_theory.rs` validates
//! soundness with `flexpath-reference`'s containment checker;
//! `tests/properties.rs` at the workspace root re-validates it empirically
//! by evaluation on random documents.
//!
//! Each applied operator reports the set of predicates it **drops** from the
//! closure (`close(Q) − close(op(Q))`) — this is the paper's
//! operator ↔ predicate-drop correspondence ("we often refer to 'the next
//! predicate dropped' … even though the algorithms are based on the
//! operators"), and it is what the ranking schemes assign penalties to.
//! Computing drops as a closure difference makes scores independent of the
//! order in which operators were applied (Theorem 3).
//!
//! ## Leaf deletion and `contains`
//!
//! Deleting a leaf drops *all* its predicates; if the leaf carried a
//! `contains`, the keyword condition itself would disappear — exactly the
//! kind of relaxation Section 3.1 rules out ("dropping the second predicate
//! admits articles not containing the given keywords"). Following the
//! paper's own derivation of Q6 (promote, *then* delete), `λ` is therefore
//! only applicable to leaves without `contains` predicates; apply `κ` first.

use crate::ast::{Axis, Tpq, Var};
use crate::closure::closure_of;
use crate::logical::PredicateSet;
use std::fmt;

/// One relaxation operator application, addressed by stable variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RelaxOp {
    /// `γ`: generalize the pc-edge *into* `child` to an ad-edge.
    AxisGeneralize {
        /// The child endpoint of the pc-edge.
        child: Var,
    },
    /// `λ`: delete leaf `var`.
    LeafDelete {
        /// The leaf to delete.
        var: Var,
    },
    /// `σ`: promote the subtree rooted at `var` to `var`'s grandparent.
    SubtreePromote {
        /// Root of the promoted subtree.
        var: Var,
    },
    /// `κ`: promote the `index`-th `contains` predicate of `var` to `var`'s
    /// parent.
    ContainsPromote {
        /// Node carrying the predicate.
        var: Var,
        /// Position in the node's `contains` list.
        index: usize,
    },
}

impl fmt::Display for RelaxOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelaxOp::AxisGeneralize { child } => write!(f, "γ(pc → ad into {child})"),
            RelaxOp::LeafDelete { var } => write!(f, "λ(delete {var})"),
            RelaxOp::SubtreePromote { var } => write!(f, "σ(promote subtree {var})"),
            RelaxOp::ContainsPromote { var, index } => {
                write!(f, "κ(promote contains #{index} of {var})")
            }
        }
    }
}

/// Why an operator could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelaxError {
    /// The addressed variable is not in the query.
    UnknownVar(Var),
    /// `γ` on a node whose incoming edge is already an ad-edge (or the root).
    NotPcEdge(Var),
    /// `λ` on a non-leaf.
    NotLeaf(Var),
    /// `λ`/`σ`/`κ` addressed the root.
    IsRoot(Var),
    /// `λ` on a leaf that still carries `contains` predicates (apply `κ` first).
    LeafHasContains(Var),
    /// `σ` on a child of the root (no grandparent).
    NoGrandparent(Var),
    /// `κ` index out of range.
    NoSuchContains(Var, usize),
}

impl fmt::Display for RelaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelaxError::UnknownVar(v) => write!(f, "variable {v} not in query"),
            RelaxError::NotPcEdge(v) => write!(f, "edge into {v} is not a pc-edge"),
            RelaxError::NotLeaf(v) => write!(f, "{v} is not a leaf"),
            RelaxError::IsRoot(v) => write!(f, "{v} is the root"),
            RelaxError::LeafHasContains(v) => {
                write!(
                    f,
                    "leaf {v} carries contains predicates; promote them first"
                )
            }
            RelaxError::NoGrandparent(v) => write!(f, "{v} has no grandparent"),
            RelaxError::NoSuchContains(v, i) => {
                write!(f, "{v} has no contains predicate #{i}")
            }
        }
    }
}

impl std::error::Error for RelaxError {}

/// Applies one operator, producing the relaxed query.
pub fn apply_op(q: &Tpq, op: &RelaxOp) -> Result<Tpq, RelaxError> {
    match *op {
        RelaxOp::AxisGeneralize { child } => {
            let idx = q.index_of(child).ok_or(RelaxError::UnknownVar(child))?;
            if q.node(idx).parent.is_none() {
                return Err(RelaxError::IsRoot(child));
            }
            if q.node(idx).axis != Axis::Child {
                return Err(RelaxError::NotPcEdge(child));
            }
            let mut out = q.clone();
            out.nodes[idx].axis = Axis::Descendant;
            Ok(out)
        }
        RelaxOp::LeafDelete { var } => {
            let idx = q.index_of(var).ok_or(RelaxError::UnknownVar(var))?;
            if q.node(idx).parent.is_none() {
                return Err(RelaxError::IsRoot(var));
            }
            if !q.is_leaf(idx) {
                return Err(RelaxError::NotLeaf(var));
            }
            if !q.node(idx).contains.is_empty() {
                return Err(RelaxError::LeafHasContains(var));
            }
            let parent = q.node(idx).parent.expect("checked above");
            let mut nodes = Vec::with_capacity(q.node_count() - 1);
            // Remap indices: everything after `idx` shifts down by one.
            let remap = |i: usize| if i > idx { i - 1 } else { i };
            for (i, n) in q.nodes.iter().enumerate() {
                if i == idx {
                    continue;
                }
                let mut n = n.clone();
                n.parent = n.parent.map(remap);
                nodes.push(n);
            }
            let distinguished = if q.distinguished == idx {
                remap(parent)
            } else {
                remap(q.distinguished)
            };
            Ok(Tpq {
                nodes,
                distinguished,
            })
        }
        RelaxOp::SubtreePromote { var } => {
            let idx = q.index_of(var).ok_or(RelaxError::UnknownVar(var))?;
            let parent = q.node(idx).parent.ok_or(RelaxError::IsRoot(var))?;
            let grandparent = q
                .node(parent)
                .parent
                .ok_or(RelaxError::NoGrandparent(var))?;
            let mut out = q.clone();
            out.nodes[idx].parent = Some(grandparent);
            out.nodes[idx].axis = Axis::Descendant;
            Ok(out)
        }
        RelaxOp::ContainsPromote { var, index } => {
            let idx = q.index_of(var).ok_or(RelaxError::UnknownVar(var))?;
            let parent = q.node(idx).parent.ok_or(RelaxError::IsRoot(var))?;
            if index >= q.node(idx).contains.len() {
                return Err(RelaxError::NoSuchContains(var, index));
            }
            let mut out = q.clone();
            let expr = out.nodes[idx].contains.remove(index);
            if !out.nodes[parent].contains.contains(&expr) {
                out.nodes[parent].contains.push(expr);
            }
            Ok(out)
        }
    }
}

/// A successfully applied relaxation with its dropped closure predicates.
#[derive(Debug, Clone)]
pub struct RelaxationStep {
    /// The operator applied.
    pub op: RelaxOp,
    /// The relaxed query.
    pub result: Tpq,
    /// `close(Q) − close(result)` — the predicates this step dropped.
    pub dropped: PredicateSet,
}

/// Applies `op` and computes its dropped-predicate set.
pub fn relaxation_step(q: &Tpq, op: &RelaxOp) -> Result<RelaxationStep, RelaxError> {
    let result = apply_op(q, op)?;
    let before = closure_of(&q.logical());
    let after = closure_of(&result.logical());
    Ok(RelaxationStep {
        op: op.clone(),
        result,
        dropped: before.difference(&after),
    })
}

/// Enumerates every operator applicable to `q`.
pub fn applicable_ops(q: &Tpq) -> Vec<RelaxOp> {
    let mut ops = Vec::new();
    for (idx, node) in q.nodes().iter().enumerate() {
        let is_root = node.parent.is_none();
        if !is_root && node.axis == Axis::Child {
            ops.push(RelaxOp::AxisGeneralize { child: node.var });
        }
        if !is_root && q.is_leaf(idx) && node.contains.is_empty() {
            ops.push(RelaxOp::LeafDelete { var: node.var });
        }
        if node
            .parent
            .map(|p| q.node(p).parent.is_some())
            .unwrap_or(false)
        {
            ops.push(RelaxOp::SubtreePromote { var: node.var });
        }
        if !is_root {
            for index in 0..node.contains.len() {
                ops.push(RelaxOp::ContainsPromote {
                    var: node.var,
                    index,
                });
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::TpqBuilder;
    use crate::logical::Predicate;
    use flexpath_ftsearch::FtExpr;

    fn ft() -> FtExpr {
        FtExpr::all_of(&["XML", "streaming"])
    }

    /// Q1 of Figure 1.
    fn q1() -> Tpq {
        let mut b = TpqBuilder::new("article");
        let s = b.child(0, "section");
        let _a = b.child(s, "algorithm");
        let p = b.child(s, "paragraph");
        b.add_contains(p, ft());
        b.build()
    }

    #[test]
    fn kappa_on_q1_yields_q2() {
        // κ_{$4}(Q1) = Q2 (Section 3.5.4).
        let step = relaxation_step(
            &q1(),
            &RelaxOp::ContainsPromote {
                var: Var(4),
                index: 0,
            },
        )
        .unwrap();
        let section_idx = step.result.index_of(Var(2)).unwrap();
        assert_eq!(step.result.node(section_idx).contains.len(), 1);
        let para_idx = step.result.index_of(Var(4)).unwrap();
        assert!(step.result.node(para_idx).contains.is_empty());
        // Drops exactly contains($4, E).
        assert_eq!(step.dropped.len(), 1);
        assert!(step.dropped.contains(&Predicate::Contains(Var(4), ft())));
    }

    #[test]
    fn sigma_on_q1_yields_q3() {
        // σ_{$3}(Q1) = Q3 (Section 3.5.3).
        let step = relaxation_step(&q1(), &RelaxOp::SubtreePromote { var: Var(3) }).unwrap();
        let alg = step.result.index_of(Var(3)).unwrap();
        assert_eq!(step.result.node(alg).parent, Some(0));
        assert_eq!(step.result.node(alg).axis, Axis::Descendant);
        // Drops pc($2,$3) and ad($2,$3) — ad($1,$3) survives via the new edge.
        assert_eq!(step.dropped.len(), 2);
        assert!(step.dropped.contains(&Predicate::Pc(Var(2), Var(3))));
        assert!(step.dropped.contains(&Predicate::Ad(Var(2), Var(3))));
    }

    #[test]
    fn gamma_drops_only_the_pc_predicate() {
        let step = relaxation_step(&q1(), &RelaxOp::AxisGeneralize { child: Var(2) }).unwrap();
        assert_eq!(step.dropped.len(), 1);
        assert!(step.dropped.contains(&Predicate::Pc(Var(1), Var(2))));
        let s = step.result.index_of(Var(2)).unwrap();
        assert_eq!(step.result.node(s).axis, Axis::Descendant);
    }

    #[test]
    fn lambda_deletes_leaf_and_its_predicates() {
        let step = relaxation_step(&q1(), &RelaxOp::LeafDelete { var: Var(3) }).unwrap();
        assert_eq!(step.result.node_count(), 3);
        assert!(step.result.index_of(Var(3)).is_none());
        // Drops pc(2,3), ad(2,3), ad(1,3), tag(3).
        assert!(step.dropped.contains(&Predicate::Pc(Var(2), Var(3))));
        assert!(step.dropped.contains(&Predicate::Ad(Var(2), Var(3))));
        assert!(step.dropped.contains(&Predicate::Ad(Var(1), Var(3))));
        assert!(step
            .dropped
            .contains(&Predicate::Tag(Var(3), "algorithm".into())));
        assert_eq!(step.dropped.len(), 4);
    }

    #[test]
    fn lambda_requires_contains_free_leaf() {
        let err = apply_op(&q1(), &RelaxOp::LeafDelete { var: Var(4) }).unwrap_err();
        assert_eq!(err, RelaxError::LeafHasContains(Var(4)));
        // After κ, the leaf becomes deletable.
        let q2 = apply_op(
            &q1(),
            &RelaxOp::ContainsPromote {
                var: Var(4),
                index: 0,
            },
        )
        .unwrap();
        assert!(apply_op(&q2, &RelaxOp::LeafDelete { var: Var(4) }).is_ok());
    }

    #[test]
    fn q1_relaxes_to_q6_via_paper_sequence() {
        // Q6 = //article[.contains(E)]: promote contains twice, delete
        // algorithm and paragraph leaves, then delete section.
        let mut q = q1();
        for op in [
            RelaxOp::ContainsPromote {
                var: Var(4),
                index: 0,
            }, // → Q2
            RelaxOp::ContainsPromote {
                var: Var(2),
                index: 0,
            }, // contains at root
            RelaxOp::LeafDelete { var: Var(3) },
            RelaxOp::LeafDelete { var: Var(4) },
            RelaxOp::LeafDelete { var: Var(2) },
        ] {
            q = apply_op(&q, &op).unwrap();
        }
        assert_eq!(q.node_count(), 1);
        assert_eq!(q.node(0).contains.len(), 1);
        assert_eq!(q.node(0).tag.as_deref(), Some("article"));
    }

    #[test]
    fn deleting_distinguished_leaf_moves_distinction_to_parent() {
        let mut b = TpqBuilder::new("a");
        let c = b.child(0, "b");
        b.set_distinguished(c);
        let q = b.build();
        let relaxed = apply_op(&q, &RelaxOp::LeafDelete { var: Var(2) }).unwrap();
        assert_eq!(relaxed.distinguished_var(), Var(1));
    }

    #[test]
    fn root_is_protected() {
        let q = q1();
        assert_eq!(
            apply_op(&q, &RelaxOp::LeafDelete { var: Var(1) }),
            Err(RelaxError::IsRoot(Var(1)))
        );
        assert_eq!(
            apply_op(&q, &RelaxOp::SubtreePromote { var: Var(1) }),
            Err(RelaxError::IsRoot(Var(1)))
        );
        assert_eq!(
            apply_op(&q, &RelaxOp::AxisGeneralize { child: Var(1) }),
            Err(RelaxError::IsRoot(Var(1)))
        );
    }

    #[test]
    fn misapplications_are_rejected() {
        let q = q1();
        assert_eq!(
            apply_op(&q, &RelaxOp::LeafDelete { var: Var(2) }),
            Err(RelaxError::NotLeaf(Var(2)))
        );
        assert_eq!(
            apply_op(&q, &RelaxOp::SubtreePromote { var: Var(2) }),
            Err(RelaxError::NoGrandparent(Var(2)))
        );
        assert_eq!(
            apply_op(&q, &RelaxOp::LeafDelete { var: Var(99) }),
            Err(RelaxError::UnknownVar(Var(99)))
        );
    }

    #[test]
    fn gamma_twice_is_rejected() {
        let q = q1();
        let once = apply_op(&q, &RelaxOp::AxisGeneralize { child: Var(2) }).unwrap();
        assert_eq!(
            apply_op(&once, &RelaxOp::AxisGeneralize { child: Var(2) }),
            Err(RelaxError::NotPcEdge(Var(2)))
        );
    }

    #[test]
    fn applicable_ops_enumerates_expected_set_for_q1() {
        let ops = applicable_ops(&q1());
        // γ for $2, $3, $4; λ for $3 (only contains-free leaf); σ for $3, $4;
        // κ for $4.
        assert!(ops.contains(&RelaxOp::AxisGeneralize { child: Var(2) }));
        assert!(ops.contains(&RelaxOp::AxisGeneralize { child: Var(3) }));
        assert!(ops.contains(&RelaxOp::AxisGeneralize { child: Var(4) }));
        assert!(ops.contains(&RelaxOp::LeafDelete { var: Var(3) }));
        assert!(!ops.contains(&RelaxOp::LeafDelete { var: Var(4) }));
        assert!(ops.contains(&RelaxOp::SubtreePromote { var: Var(3) }));
        assert!(ops.contains(&RelaxOp::SubtreePromote { var: Var(4) }));
        assert!(ops.contains(&RelaxOp::ContainsPromote {
            var: Var(4),
            index: 0
        }));
        assert_eq!(ops.len(), 7);
    }

    #[test]
    fn dropped_sets_compose_to_closure_difference() {
        // Order invariance foundation: applying γ($2) then σ($3) drops the
        // same cumulative set as σ($3) then γ($2).
        let q = q1();
        let path_a = {
            let s1 = apply_op(&q, &RelaxOp::AxisGeneralize { child: Var(2) }).unwrap();
            apply_op(&s1, &RelaxOp::SubtreePromote { var: Var(3) }).unwrap()
        };
        let path_b = {
            let s1 = apply_op(&q, &RelaxOp::SubtreePromote { var: Var(3) }).unwrap();
            apply_op(&s1, &RelaxOp::AxisGeneralize { child: Var(2) }).unwrap()
        };
        let base = closure_of(&q.logical());
        let da = base.difference(&closure_of(&path_a.logical()));
        let db = base.difference(&closure_of(&path_b.logical()));
        assert_eq!(da, db);
    }
}
