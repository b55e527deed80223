//! Relaxation-encoded queries.
//!
//! SSO and Hybrid "encode relaxations in the query evaluation process"
//! (Section 7's *plan-based strategies*): instead of evaluating one query
//! per relaxation, a single plan matches the *most relaxed* form while
//! remembering, per answer, which original closure predicates still hold —
//! "dropping corresponds to making predicates optional (and not losing them
//! entirely)" (Section 5.1.1).
//!
//! An [`EncodedQuery`] aligns three things:
//!
//! * **Node specs**, one per *original* query node. Surviving nodes carry
//!   their relaxed match condition (anchor + axis + required `contains` +
//!   attribute predicates). Nodes deleted by `λ` become **ghosts**: optional
//!   operands that are still matched opportunistically so that answers which
//!   happen to satisfy the deleted predicates score higher (the paper:
//!   "dropping .//C … does not mean that the query A[.//C] will never be
//!   considered").
//! * **Relaxable predicates** — the union of the schedule prefix's dropped
//!   closure predicates, each with its penalty and a per-match check. Their
//!   indices form the satisfied-predicate bitset that Hybrid buckets on.
//! * **Contains specs** — each original `contains` expression with its
//!   current (relaxed) holder node, shared [`FtEval`] handle, and weight.
//!
//! [`FtEval`]: flexpath_ftsearch::FtEval

use crate::attr_relax::AttrRelaxation;
use crate::context::EngineContext;
use crate::hierarchy::TagHierarchy;
use crate::schedule::ScheduledStep;
use crate::score::PenaltyModel;
use flexpath_ftsearch::{Budget, FtEval};
use flexpath_tpq::{AttrPred, Axis, Predicate, Tpq, Var};
use flexpath_xmldom::Sym;
use std::sync::Arc;

/// How a relaxable predicate is checked against a match.
pub enum BitCheck {
    /// `pc(x, owner)`: the binding of spec `x` must be the parent of the
    /// owner's binding.
    PcFrom(usize),
    /// `ad(x, owner)`: the binding of spec `x` must be an ancestor.
    AdFrom(usize),
    /// `contains(owner, E)`: the owner's subtree must satisfy `E`.
    ContainsHere(Arc<FtEval>),
    /// `owner.tag = t`: the owner's binding carries exactly this tag
    /// (hierarchy extension — unsatisfied when a sibling subtype matched).
    TagIs(Sym),
    /// The owner's binding satisfies the *strict* attribute bound
    /// (value-relaxation extension — unsatisfied when only the slackened
    /// bound holds).
    AttrStrict {
        /// Resolved attribute name (`None` = attribute unknown, never
        /// satisfiable).
        attr: Option<Sym>,
        /// The strict predicate.
        pred: AttrPred,
    },
}

/// One encoded relaxable (dropped) predicate.
pub struct RelaxablePred {
    /// The closure predicate.
    pub pred: Predicate,
    /// Its penalty `π(p)`.
    pub penalty: f64,
    /// Spec index of the node whose binding decides the check.
    pub owner: usize,
    /// The runtime check.
    pub check: BitCheck,
}

/// One original `contains` predicate with its relaxed placement.
pub struct ContainsSpec {
    /// Shared evaluation of the expression.
    pub eval: Arc<FtEval>,
    /// Predicate weight (1 by default).
    pub weight: f64,
    /// Spec index of the node the predicate was *originally* attached to.
    pub orig_owner: usize,
    /// Spec index of the node that must satisfy it in the relaxed query.
    pub holder: usize,
}

/// How an attribute predicate is enforced during matching.
#[derive(Debug, Clone)]
pub enum AttrMode {
    /// Must hold exactly.
    Strict,
    /// The slackened bound suffices (the strict bound is a relaxable bit).
    Slackened,
}

/// Match specification for one original query node.
pub struct NodeSpec {
    /// The stable variable.
    pub var: Var,
    /// Original query parent (spec index).
    pub parent: Option<usize>,
    /// Whether the node survives in the relaxed query (`false` = ghost).
    pub surviving: bool,
    /// Spec index of the node whose binding anchors candidate lookup
    /// (`None` only for the root). Always an original ancestor.
    pub anchor: Option<usize>,
    /// Required axis w.r.t. the anchor (ghosts always use `Descendant`).
    pub axis: Axis,
    /// Resolved tag (`None` = wildcard).
    pub tag: Option<Sym>,
    /// The node names a tag that does not occur in the document.
    pub tag_missing: bool,
    /// Additional acceptable tags (sibling subtypes from a [`TagHierarchy`]).
    pub alt_tags: Vec<Sym>,
    /// Attribute predicates with pre-resolved names and enforcement mode.
    pub attrs: Vec<(Option<Sym>, AttrPred, AttrMode)>,
    /// Contains-spec indices that must be satisfied at this node.
    pub required_contains: Vec<usize>,
    /// Relaxable-predicate indices owned by this node.
    pub bits: Vec<usize>,
}

/// A query with a prefix of the relaxation schedule encoded into it.
pub struct EncodedQuery {
    /// Attribute slackening in effect (None = strict attribute matching).
    pub attr_relax: Option<AttrRelaxation>,
    /// The user's original query.
    pub original: Tpq,
    /// The relaxed query actually being matched.
    pub relaxed: Tpq,
    /// One spec per original node, in original pre-order.
    pub specs: Vec<NodeSpec>,
    /// Encoded droppable predicates (≤ 64).
    pub relaxable: Vec<RelaxablePred>,
    /// For each relaxable predicate, the (0-based) schedule step that
    /// dropped it — used to derive a per-answer relaxation level.
    pub bit_step: Vec<usize>,
    /// Original `contains` predicates with relaxed holders.
    pub cspecs: Vec<ContainsSpec>,
    /// `Σ w` over the original structural predicates.
    pub base_ss: f64,
    /// `Σ π` over all encoded relaxable predicates.
    pub total_penalty: f64,
    /// Number of schedule steps encoded.
    pub relaxation_level: usize,
}

impl EncodedQuery {
    /// Encodes `original` with the first `steps.len()` schedule steps.
    /// Pass an empty slice for exact-match evaluation.
    pub fn build(
        ctx: &EngineContext,
        model: &PenaltyModel,
        original: &Tpq,
        steps: &[ScheduledStep],
    ) -> Self {
        Self::build_structural(ctx, model, original, steps, None, &Budget::unlimited())
    }

    /// [`build`](Self::build) plus the full set of Section 3.4 extensions
    /// (tag relaxation over a type hierarchy, numeric attribute-bound
    /// slackening), under a resource [`Budget`]: the full-text evaluations
    /// feeding the encoded plan are budgeted (and a tripped evaluation is
    /// never cached). Check [`Budget::tripped`] after building — an
    /// encoding constructed under a tripped budget may carry partial
    /// `contains` evaluations and must only serve a best-effort result.
    #[allow(clippy::too_many_arguments)]
    pub fn build_full(
        ctx: &EngineContext,
        model: &PenaltyModel,
        original: &Tpq,
        steps: &[ScheduledStep],
        hierarchy: Option<&TagHierarchy>,
        attr_relax: Option<AttrRelaxation>,
        budget: &Budget,
    ) -> Self {
        let mut enc = Self::build_structural(ctx, model, original, steps, hierarchy, budget);
        let Some(relax) = attr_relax else { return enc };
        enc.attr_relax = Some(relax);
        for idx in 0..enc.specs.len() {
            if enc.relaxable.len() >= 64 {
                break;
            }
            let tag = enc.specs[idx].tag;
            let var = enc.specs[idx].var;
            let mut new_bits = Vec::new();
            for (attr_sym, pred, mode) in &mut enc.specs[idx].attrs {
                if relax.relaxed_pred(pred).is_none() {
                    continue; // non-numeric or non-slackenable: stays strict
                }
                *mode = AttrMode::Slackened;
                let penalty = relax.penalty(ctx, tag, *attr_sym, pred);
                let bi = enc.relaxable.len() + new_bits.len();
                new_bits.push((
                    bi,
                    RelaxablePred {
                        pred: Predicate::Attr(var, pred.clone()),
                        penalty,
                        owner: idx,
                        check: BitCheck::AttrStrict {
                            attr: *attr_sym,
                            pred: pred.clone(),
                        },
                    },
                ));
            }
            for (bi, rp) in new_bits {
                enc.specs[idx].bits.push(bi);
                enc.bit_step.push(usize::MAX);
                enc.total_penalty += rp.penalty;
                enc.relaxable.push(rp);
            }
        }
        assert!(enc.relaxable.len() <= 64);
        enc
    }

    /// [`build`](Self::build) plus the Section 3.4 tag-relaxation
    /// extension: nodes whose tag belongs to a declared type also match
    /// sibling subtypes, with the exact-tag predicate as one more
    /// relaxable bit.
    fn build_structural(
        ctx: &EngineContext,
        model: &PenaltyModel,
        original: &Tpq,
        steps: &[ScheduledStep],
        hierarchy: Option<&TagHierarchy>,
        budget: &Budget,
    ) -> Self {
        let relaxed = steps
            .last()
            .map(|s| s.query.clone())
            .unwrap_or_else(|| original.clone());
        let idx_of_var = |v: Var| -> usize {
            match original.index_of(v) {
                Some(i) => i,
                // Relaxation operators never invent variables; a miss here
                // is an engine bug, not reachable from user input.
                // lint:allow(panic): internal invariant — every relaxation
                // step rewrites edges over the original variable set.
                None => unreachable!("relaxed query variable missing from original"),
            }
        };

        // Node specs.
        let mut specs: Vec<NodeSpec> = original
            .nodes()
            .iter()
            .enumerate()
            .map(|(idx, node)| {
                let _ = idx;
                let ridx_opt = relaxed.index_of(node.var);
                let surviving = ridx_opt.is_some();
                let (anchor, axis) = if let Some(ridx) = ridx_opt {
                    match relaxed.node(ridx).parent {
                        Some(rp) => (
                            Some(idx_of_var(relaxed.node(rp).var)),
                            relaxed.node(ridx).axis,
                        ),
                        None => (None, Axis::Child),
                    }
                } else {
                    // Ghost: anchored at the nearest surviving original
                    // ancestor, descendant axis (the loosest edge — the
                    // bits grade how well the original edges are met).
                    let mut cur = node.parent;
                    let mut found = None;
                    while let Some(p) = cur {
                        if relaxed.index_of(original.node(p).var).is_some() {
                            found = Some(p);
                            break;
                        }
                        cur = original.node(p).parent;
                    }
                    (found, Axis::Descendant)
                };
                let tag = node.tag.as_deref().map(|t| ctx.resolve_tag(t));
                let (tag_sym, tag_missing) = match tag {
                    Some(Some(sym)) => (Some(sym), false),
                    Some(None) => (None, true),
                    None => (None, false),
                };
                let attrs = node
                    .attrs
                    .iter()
                    .map(|a| (ctx.resolve_tag(&a.name), a.clone(), AttrMode::Strict))
                    .collect();
                NodeSpec {
                    var: node.var,
                    parent: node.parent,
                    surviving,
                    anchor,
                    axis,
                    tag: tag_sym,
                    tag_missing,
                    alt_tags: Vec::new(),
                    attrs,
                    required_contains: Vec::new(),
                    bits: Vec::new(),
                }
            })
            .collect();

        // Contains specs: original owners and relaxed holders.
        let mut cspecs: Vec<ContainsSpec> = Vec::new();
        for (idx, node) in original.nodes().iter().enumerate() {
            for expr in &node.contains {
                // Walk up the ORIGINAL ancestor chain (self first) to find
                // the surviving node holding the expression in the relaxed
                // query.
                let mut holder = None;
                let mut cur = Some(idx);
                while let Some(i) = cur {
                    if let Some(r) = relaxed.index_of(original.node(i).var) {
                        if relaxed.node(r).contains.contains(expr) {
                            holder = Some(i);
                            break;
                        }
                    }
                    cur = original.node(i).parent;
                }
                let holder = holder.unwrap_or(idx);
                let ci = cspecs.len();
                cspecs.push(ContainsSpec {
                    eval: ctx.ft_eval(expr, budget),
                    weight: model
                        .weights()
                        .weight(&Predicate::Contains(node.var, expr.clone())),
                    orig_owner: idx,
                    holder,
                });
                specs[holder].required_contains.push(ci);
            }
        }

        // Relaxable predicates from the schedule prefix.
        let mut relaxable: Vec<RelaxablePred> = Vec::new();
        let mut bit_step: Vec<usize> = Vec::new();
        for (si, step) in steps.iter().enumerate() {
            for (pred, penalty) in &step.new_dropped {
                let (owner, check) = match pred {
                    Predicate::Pc(x, y) => (idx_of_var(*y), BitCheck::PcFrom(idx_of_var(*x))),
                    Predicate::Ad(x, y) => (idx_of_var(*y), BitCheck::AdFrom(idx_of_var(*x))),
                    Predicate::Contains(v, e) => (
                        idx_of_var(*v),
                        BitCheck::ContainsHere(ctx.ft_eval(e, budget)),
                    ),
                    Predicate::Tag(..) | Predicate::Attr(..) => continue,
                };
                let bi = relaxable.len();
                specs[owner].bits.push(bi);
                bit_step.push(si);
                relaxable.push(RelaxablePred {
                    pred: pred.clone(),
                    penalty: *penalty,
                    owner,
                    check,
                });
            }
        }
        // Tag relaxation (hierarchy extension): widen the acceptable tag
        // set and add an exact-tag bit per hierarchy-typed node.
        if let Some(h) = hierarchy {
            for (idx, node) in original.nodes().iter().enumerate() {
                if relaxable.len() >= 64 {
                    break;
                }
                let Some(tag) = node.tag.as_deref() else {
                    continue;
                };
                let Some(siblings) = h.siblings(tag) else {
                    continue;
                };
                let alt: Vec<Sym> = siblings
                    .iter()
                    .filter(|m| &***m != tag)
                    .filter_map(|m| ctx.resolve_tag(m))
                    .collect();
                if alt.is_empty() {
                    continue;
                }
                let own_count = ctx
                    .resolve_tag(tag)
                    .map(|sym| ctx.stats().tag_count(sym))
                    .unwrap_or(0);
                let member_total: u64 = own_count
                    + alt
                        .iter()
                        .map(|&sym| ctx.stats().tag_count(sym))
                        .sum::<u64>();
                if member_total == 0 {
                    continue;
                }
                // A tag whose subtype dominates its supertype gains little
                // by relaxing — penalty close to the full weight.
                let penalty = (own_count as f64 / member_total as f64).clamp(0.0, 1.0) * h.weight();
                // The node may now match sibling tags even though its own
                // tag resolved to nothing.
                specs[idx].alt_tags = alt;
                specs[idx].tag_missing = false;
                let bi = relaxable.len();
                specs[idx].bits.push(bi);
                bit_step.push(usize::MAX); // extension bit, not a schedule step
                let check = match specs[idx].tag {
                    Some(sym) => BitCheck::TagIs(sym),
                    // Tag absent from the document: the exact-tag predicate
                    // can never be satisfied; encode an impossible check.
                    None => BitCheck::TagIs(Sym(u32::MAX)),
                };
                relaxable.push(RelaxablePred {
                    pred: Predicate::Tag(node.var, tag.into()),
                    penalty,
                    owner: idx,
                    check,
                });
            }
        }
        assert!(
            relaxable.len() <= 64,
            "schedule construction caps droppable predicates at 64"
        );
        let total_penalty = relaxable.iter().map(|r| r.penalty).sum();

        EncodedQuery {
            attr_relax: None,
            base_ss: model.base_structural_score(original),
            original: original.clone(),
            relaxed,
            specs,
            relaxable,
            bit_step,
            cspecs,
            total_penalty,
            relaxation_level: steps.len(),
        }
    }

    /// Exact-match encoding (no relaxation).
    pub fn exact(ctx: &EngineContext, model: &PenaltyModel, query: &Tpq) -> Self {
        Self::build(ctx, model, query, &[])
    }

    /// Spec index of the distinguished node.
    pub fn distinguished_spec(&self) -> usize {
        self.original.distinguished()
    }

    /// Renders the encoded plan in the spirit of the paper's Figure 8:
    /// one line per query node showing its match condition, optionality,
    /// encoded relaxable predicates, and required contains.
    pub fn describe(&self, ctx: &EngineContext) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "encoded plan: {} node(s), {} relaxable predicate(s), base ss {:.3}, max penalty {:.3}",
            self.specs.len(),
            self.relaxable.len(),
            self.base_ss,
            self.total_penalty
        );
        let children = self.child_index();
        let mut stack = vec![(0usize, 0usize)];
        while let Some((idx, depth)) = stack.pop() {
            let spec = &self.specs[idx];
            let tag = spec
                .tag
                .map(|s| ctx.doc().symbols().name(s).to_string())
                .unwrap_or_else(|| {
                    if spec.tag_missing {
                        "<missing>".into()
                    } else {
                        "*".into()
                    }
                });
            let role = if !spec.surviving {
                "ghost"
            } else if spec.parent.is_none() {
                "root"
            } else {
                match spec.axis {
                    flexpath_tpq::Axis::Child => "pc",
                    flexpath_tpq::Axis::Descendant => "ad",
                }
            };
            let _ = write!(out, "{}{} {tag} [{role}]", "  ".repeat(depth), spec.var);
            if !spec.alt_tags.is_empty() {
                let alts: Vec<&str> = spec
                    .alt_tags
                    .iter()
                    .map(|&a| ctx.doc().symbols().name(a))
                    .collect();
                let _ = write!(out, " | {}", alts.join("|"));
            }
            for &ci in &spec.required_contains {
                let _ = write!(out, " requires contains#{ci}");
            }
            for &bi in &spec.bits {
                let r = &self.relaxable[bi];
                let _ = write!(out, "  [bit {bi}: {} π={:.3}]", r.pred, r.penalty);
            }
            let _ = writeln!(out);
            for ci in children.range(idx).rev() {
                stack.push((children.at(ci), depth + 1));
            }
        }
        out
    }

    /// The child lists of the original query tree, per spec index, in one
    /// contiguous arena ([`ChildIndex`]) — the evaluator's hot loops read
    /// ranges of it instead of cloning a per-spec `Vec` for every
    /// candidate visited.
    pub fn child_index(&self) -> ChildIndex {
        let n = self.specs.len();
        let mut offsets = vec![0usize; n + 1];
        for spec in &self.specs {
            if let Some(p) = spec.parent {
                offsets[p + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut list = vec![0usize; offsets[n]];
        // Specs are visited in index (= original-tree) order, so each
        // parent's slice stays in original-tree order.
        for (idx, spec) in self.specs.iter().enumerate() {
            if let Some(p) = spec.parent {
                list[cursor[p]] = idx;
                cursor[p] += 1;
            }
        }
        ChildIndex { offsets, list }
    }
}

/// Contiguous (CSR-style) layout of the original query tree's child lists:
/// one shared arena plus per-spec offset ranges. Built once per evaluator;
/// walking a node's children is then a range read with no allocation —
/// the per-candidate `Vec` clone this replaced dominated the evaluator's
/// allocator traffic on large documents.
#[derive(Debug, Clone)]
pub struct ChildIndex {
    /// `offsets[i]..offsets[i + 1]` indexes `list` for spec `i`'s children.
    offsets: Vec<usize>,
    /// Child spec indices, grouped by parent, in original-tree order.
    list: Vec<usize>,
}

impl ChildIndex {
    /// Arena range holding spec `idx`'s children (resolve with
    /// [`ChildIndex::at`]).
    pub fn range(&self, idx: usize) -> std::ops::Range<usize> {
        self.offsets[idx]..self.offsets[idx + 1]
    }

    /// The child spec index stored at arena position `i`.
    pub fn at(&self, i: usize) -> usize {
        self.list[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{q1, TWO_ARTICLES};
    use crate::schedule::build_schedule;
    use crate::score::WeightAssignment;
    use flexpath_tpq::TpqBuilder;
    use flexpath_xmldom::parse;

    fn setup() -> (EngineContext, PenaltyModel, Tpq) {
        let q = q1();
        let (ctx, model) = crate::fixtures::setup(TWO_ARTICLES, &q);
        (ctx, model, q)
    }

    #[test]
    fn exact_encoding_has_no_relaxable_predicates() {
        let (ctx, model, q) = setup();
        let enc = EncodedQuery::exact(&ctx, &model, &q);
        assert!(enc.relaxable.is_empty());
        assert_eq!(enc.total_penalty, 0.0);
        assert_eq!(enc.base_ss, 3.0);
        assert_eq!(enc.cspecs.len(), 1);
        // Contains stays at its original owner.
        assert_eq!(enc.cspecs[0].orig_owner, enc.cspecs[0].holder);
        assert!(enc.specs.iter().all(|s| s.surviving));
    }

    #[test]
    fn full_encoding_tracks_ghosts_and_holders() {
        let (ctx, model, q) = setup();
        let steps = build_schedule(&ctx, &model, &q, 64);
        let enc = EncodedQuery::build(&ctx, &model, &q, &steps);
        // Fully relaxed: only the root survives.
        assert_eq!(enc.relaxed.node_count(), 1);
        assert_eq!(
            enc.specs.iter().filter(|s| !s.surviving).count(),
            3,
            "section, algorithm, paragraph become ghosts"
        );
        // The contains predicate is now held by the root.
        assert_eq!(enc.cspecs[0].holder, 0);
        assert_eq!(enc.cspecs[0].orig_owner, 3);
        assert!(enc.specs[0].required_contains.contains(&0));
        // Every ghost anchors at the (surviving) root.
        for s in enc.specs.iter().filter(|s| !s.surviving) {
            assert_eq!(s.anchor, Some(0));
            assert_eq!(s.axis, Axis::Descendant);
        }
        assert!(enc.total_penalty > 0.0);
        assert_eq!(enc.relaxation_level, steps.len());
    }

    #[test]
    fn bit_owners_match_predicate_child_endpoints() {
        let (ctx, model, q) = setup();
        let steps = build_schedule(&ctx, &model, &q, 64);
        let enc = EncodedQuery::build(&ctx, &model, &q, &steps);
        for (bi, r) in enc.relaxable.iter().enumerate() {
            assert!(
                enc.specs[r.owner].bits.contains(&bi),
                "bit {bi} not registered with its owner"
            );
            match (&r.pred, &r.check) {
                (Predicate::Pc(x, y), BitCheck::PcFrom(xi)) => {
                    assert_eq!(enc.specs[*xi].var, *x);
                    assert_eq!(enc.specs[r.owner].var, *y);
                }
                (Predicate::Ad(x, y), BitCheck::AdFrom(xi)) => {
                    assert_eq!(enc.specs[*xi].var, *x);
                    assert_eq!(enc.specs[r.owner].var, *y);
                }
                (Predicate::Contains(v, _), BitCheck::ContainsHere(_)) => {
                    assert_eq!(enc.specs[r.owner].var, *v);
                }
                other => panic!("inconsistent pred/check pairing: {:?}", other.0),
            }
        }
    }

    #[test]
    fn partial_prefix_encodes_partial_relaxation() {
        let (ctx, model, q) = setup();
        let steps = build_schedule(&ctx, &model, &q, 64);
        let enc1 = EncodedQuery::build(&ctx, &model, &q, &steps[..1]);
        let enc_all = EncodedQuery::build(&ctx, &model, &q, &steps);
        assert!(enc1.relaxable.len() < enc_all.relaxable.len());
        assert!(enc1.total_penalty < enc_all.total_penalty);
        assert_eq!(enc1.relaxation_level, 1);
    }

    #[test]
    fn unknown_tags_are_flagged() {
        let mut b = TpqBuilder::new("article");
        b.child(0, "nonexistent");
        let q = b.build();
        let ctx = EngineContext::new(parse(TWO_ARTICLES).unwrap());
        let model = PenaltyModel::new(&q, WeightAssignment::uniform());
        let enc = EncodedQuery::exact(&ctx, &model, &q);
        assert!(enc.specs[1].tag_missing);
        assert!(!enc.specs[0].tag_missing);
    }

    #[test]
    fn child_index_mirrors_original_tree() {
        let (ctx, model, q) = setup();
        let enc = EncodedQuery::exact(&ctx, &model, &q);
        let index = enc.child_index();
        let children = |idx: usize| index.range(idx).map(|i| index.at(i)).collect::<Vec<_>>();
        assert_eq!(children(0), [1]);
        assert_eq!(children(1), [2, 3]);
        assert!(children(2).is_empty() && children(3).is_empty());
    }
}
