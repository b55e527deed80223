//! The penalty-ordered relaxation schedule.
//!
//! All three algorithms walk the *same* sequence of relaxations: "computes
//! its closure and sorts its predicates by increasing penalty order …
//! \[then\] drops the predicate with the lowest penalty" (Section 5.1.1).
//! Predicate dropping is achieved through the operators of Section 3.5
//! (paper footnote 6), so the schedule is built greedily: at each state,
//! apply the applicable operator whose dropped-predicate set has the lowest
//! total penalty.
//!
//! Each step records the *new* predicates it drops relative to the original
//! closure — penalties are properties of the original query, so the score
//! of answers admitted at step `i` is `base − Σ_{j ≤ i} penalty(j)`,
//! independent of derivation order (Theorem 3).
//!
//! ## One closure, decided on the tree
//!
//! The original closure is computed once. What a candidate operator drops
//! is `close(Q) − close(op(Q'))` (DESIGN.md §6.1), and for a tree-shaped
//! query membership in `close(op(Q'))` can be read off the relaxed tree
//! without materialising it: the rules of Figure 3 never derive a `pc`,
//! `tag` or attribute predicate, so those are in the closure exactly when
//! the tree carries them; `ad(x, y)` is reachability over the edges, which
//! in a tree is strict ancestry; and `contains(x, E)` propagates up that
//! same relation, so it holds exactly when `x` or a node below it carries
//! `E`. `holds` below is that test; the closure difference stays the
//! definition, and the unit tests keep a scorer built on it as the reference
//! this one must equal bit for bit.
//!
//! A predicate's penalty is computed the first time some candidate drops it
//! and kept for the rest of the build. Candidates are scored in operator
//! order and their drops visited in closure order, so each penalty is first
//! needed at the point where a per-candidate recomputation would first have
//! asked for it: a cold `contains` evaluation, its postings charge and a
//! budget trip land where they always did. The table is a local of one
//! build. A per-session memo of whole schedules was sized against this and
//! dropped: it would take a further 3.5 % of a `structural_relax` round at
//! most, for a cache with residency and invalidation questions of its own.

use crate::context::EngineContext;
use crate::score::PenaltyModel;
use flexpath_ftsearch::Budget;
use flexpath_tpq::{applicable_ops, apply_op, Axis, Predicate, RelaxOp, Tpq, Var};

/// One scheduled relaxation step.
#[derive(Debug, Clone)]
pub struct ScheduledStep {
    /// Operator applied at this step.
    pub op: RelaxOp,
    /// The query after this step.
    pub query: Tpq,
    /// Closure predicates newly dropped by this step (relative to the
    /// original query's closure), with their penalties.
    pub new_dropped: Vec<(Predicate, f64)>,
    /// Penalty of this step (sum over `new_dropped`).
    pub step_penalty: f64,
    /// Cumulative penalty after this step.
    pub cumulative_penalty: f64,
    /// Structural score of answers first admitted by this step.
    pub ss_after: f64,
}

/// Builds the greedy penalty-ordered schedule for `original`.
///
/// Stops when no operator applies, when `max_steps` is reached, or when the
/// total count of droppable structural/contains predicates would exceed 64
/// (the encoded bitset width).
pub fn build_schedule(
    ctx: &EngineContext,
    model: &PenaltyModel,
    original: &Tpq,
    max_steps: usize,
) -> Vec<ScheduledStep> {
    build_schedule_reported(ctx, model, original, max_steps, &Budget::unlimited()).0
}

/// Work counters from one schedule construction, for the observability
/// layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleBuildReport {
    /// Governor checkpoints taken (one per greedy step attempted).
    pub checkpoints: u64,
    /// Applicable operators scored across all steps.
    pub ops_scored: u64,
}

/// [`build_schedule`] under a resource [`Budget`], returning a
/// [`ScheduleBuildReport`] of the work performed alongside the schedule.
///
/// The budget is checkpointed between steps; when it trips, the (valid)
/// prefix built so far is returned. Schedule prefixes are always usable —
/// each step only depends on the steps before it.
///
/// Within one step every applicable operator is scored in operator-index
/// order and the winner is the smallest penalty, earliest operator on ties
/// (strict `<`).
pub fn build_schedule_reported(
    ctx: &EngineContext,
    model: &PenaltyModel,
    original: &Tpq,
    max_steps: usize,
    budget: &Budget,
) -> (Vec<ScheduledStep>, ScheduleBuildReport) {
    let base = model.base_structural_score(original);
    let closure = original.closure();
    // Only predicates that carry weight are ever scored or recorded.
    let mut slots: Vec<Slot<'_>> = closure
        .iter()
        .filter(|p| model.weights().weight(p) > 0.0)
        .map(|pred| Slot {
            pred,
            dropped: false,
            penalty: None,
        })
        .collect();
    let mut steps: Vec<ScheduledStep> = Vec::new();
    let mut bits_used = 0usize;
    let mut report = ScheduleBuildReport::default();

    while steps.len() < max_steps {
        report.checkpoints += 1;
        if budget.check_now() {
            break;
        }
        // Score every applicable operator; pick the cheapest, first-listed
        // on ties.
        let current = steps.last().map_or(original, |s| &s.query);
        let ops = applicable_ops(current);
        report.ops_scored += ops.len() as u64;
        // (operator, relaxed query, (slot, penalty) of each predicate it
        // newly drops, their sum)
        type Candidate = (RelaxOp, Tpq, Vec<(usize, f64)>, f64);
        let mut best: Option<Candidate> = None;
        for op in ops {
            let Ok(next) = apply_op(current, &op) else {
                continue;
            };
            // New drops relative to the ORIGINAL closure (weighted preds only).
            let mut new_dropped: Vec<(usize, f64)> = Vec::new();
            for (i, slot) in slots.iter_mut().enumerate() {
                if !slot.dropped && !holds(&next, slot.pred) {
                    let pi = slot
                        .penalty
                        .get_or_insert_with(|| model.penalty(ctx, slot.pred, budget));
                    new_dropped.push((i, *pi));
                }
            }
            if new_dropped.is_empty() {
                // The operator did not weaken the query w.r.t. the original
                // closure (e.g. a no-op diamond); skip it.
                continue;
            }
            let penalty: f64 = new_dropped.iter().map(|(_, pi)| pi).sum();
            if best.as_ref().is_none_or(|b| penalty < b.3) {
                best = Some((op, next, new_dropped, penalty));
            }
        }
        let Some((op, next, new_dropped, step_penalty)) = best else {
            break;
        };
        if bits_used + new_dropped.len() > 64 {
            break;
        }
        bits_used += new_dropped.len();
        let new_dropped: Vec<(Predicate, f64)> = new_dropped
            .into_iter()
            .map(|(i, pi)| {
                slots[i].dropped = true;
                (slots[i].pred.clone(), pi)
            })
            .collect();
        let cumulative = steps.last().map(|s| s.cumulative_penalty).unwrap_or(0.0) + step_penalty;
        steps.push(ScheduledStep {
            op,
            query: next,
            new_dropped,
            step_penalty,
            cumulative_penalty: cumulative,
            ss_after: base - cumulative,
        });
    }
    (steps, report)
}

/// What one build keeps per weighted predicate of the original closure, in
/// the closure's canonical order.
struct Slot<'a> {
    pred: &'a Predicate,
    /// Whether a chosen step has dropped it.
    dropped: bool,
    /// Its penalty, once some candidate has dropped it.
    penalty: Option<f64>,
}

/// Whether `p`, a predicate of the original closure, is still in the closure
/// of the relaxed query `q` (see the module docs for why the tree decides).
fn holds(q: &Tpq, p: &Predicate) -> bool {
    match p {
        Predicate::Pc(x, y) => q.index_of(*y).is_some_and(|i| {
            let n = q.node(i);
            n.axis == Axis::Child && n.parent.is_some_and(|parent| q.node(parent).var == *x)
        }),
        Predicate::Ad(x, y) => q.index_of(*y).is_some_and(|i| is_below(q, i, *x)),
        Predicate::Contains(x, e) => q
            .nodes()
            .iter()
            .enumerate()
            .any(|(i, n)| n.contains.contains(e) && (n.var == *x || is_below(q, i, *x))),
        Predicate::Tag(x, t) => q
            .index_of(*x)
            .is_some_and(|i| q.node(i).tag.as_ref() == Some(t)),
        Predicate::Attr(x, a) => q.index_of(*x).is_some_and(|i| q.node(i).attrs.contains(a)),
    }
}

/// Whether the node at `idx` has a strict ancestor with variable `x`.
fn is_below(q: &Tpq, idx: usize, x: Var) -> bool {
    let mut cur = q.node(idx).parent;
    while let Some(parent) = cur {
        if q.node(parent).var == x {
            return true;
        }
        cur = q.node(parent).parent;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{q1, setup, TWO_ARTICLES};
    use crate::score::WeightAssignment;
    use flexpath_ftsearch::{ExhaustReason, FtExpr};
    use flexpath_tpq::{closure_of, parse_query, relaxation_step, PredicateSet, TpqBuilder};
    use flexpath_xmark::{generate, XmarkConfig};
    use flexpath_xmldom::parse;

    /// The definition (DESIGN.md §6.1), kept as the reference
    /// [`build_schedule_reported`] is held to: every candidate's drops are
    /// the difference of two materialised closures, and every penalty is
    /// asked of the model again each time it is needed.
    fn reference_schedule(
        ctx: &EngineContext,
        model: &PenaltyModel,
        original: &Tpq,
        max_steps: usize,
        budget: &Budget,
    ) -> (Vec<ScheduledStep>, ScheduleBuildReport) {
        let base = model.base_structural_score(original);
        let original_closure = original.closure();
        let mut steps: Vec<ScheduledStep> = Vec::new();
        let mut current = original.clone();
        let mut dropped_so_far = PredicateSet::new();
        let mut bits_used = 0usize;
        let mut report = ScheduleBuildReport::default();

        while steps.len() < max_steps {
            report.checkpoints += 1;
            if budget.check_now() {
                break;
            }
            type Candidate = (RelaxOp, Tpq, Vec<(Predicate, f64)>, f64);
            let ops = applicable_ops(&current);
            report.ops_scored += ops.len() as u64;
            let mut best: Option<Candidate> = None;
            for op in ops {
                let Ok(step) = relaxation_step(&current, &op) else {
                    continue;
                };
                let after_closure = closure_of(&step.result.logical());
                let new_dropped: Vec<(Predicate, f64)> = original_closure
                    .difference(&after_closure)
                    .iter()
                    .filter(|p| !dropped_so_far.contains(p))
                    .filter(|p| model.weights().weight(p) > 0.0)
                    .map(|p| (p.clone(), model.penalty(ctx, p, budget)))
                    .collect();
                if new_dropped.is_empty() {
                    continue;
                }
                let penalty: f64 = new_dropped.iter().map(|(_, pi)| pi).sum();
                if best.as_ref().is_none_or(|b| penalty < b.3) {
                    best = Some((op, step.result, new_dropped, penalty));
                }
            }
            let Some((op, next, new_dropped, step_penalty)) = best else {
                break;
            };
            if bits_used + new_dropped.len() > 64 {
                break;
            }
            bits_used += new_dropped.len();
            for (p, _) in &new_dropped {
                dropped_so_far.insert(p.clone());
            }
            let cumulative =
                steps.last().map(|s| s.cumulative_penalty).unwrap_or(0.0) + step_penalty;
            steps.push(ScheduledStep {
                op,
                query: next.clone(),
                new_dropped,
                step_penalty,
                cumulative_penalty: cumulative,
                ss_after: base - cumulative,
            });
            current = next;
        }
        (steps, report)
    }

    /// Same operators, same relaxed queries, same dropped predicates, and
    /// every float equal bit for bit.
    fn assert_same_steps(got: &[ScheduledStep], want: &[ScheduledStep], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: step count");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.op, w.op, "{what}: op of step {i}");
            assert_eq!(g.query, w.query, "{what}: query after step {i}");
            let bits = |dropped: &[(Predicate, f64)]| -> Vec<(Predicate, u64)> {
                dropped
                    .iter()
                    .map(|(p, pi)| (p.clone(), pi.to_bits()))
                    .collect()
            };
            assert_eq!(
                bits(&g.new_dropped),
                bits(&w.new_dropped),
                "{what}: drops of step {i}"
            );
            for (name, g, w) in [
                ("step_penalty", g.step_penalty, w.step_penalty),
                (
                    "cumulative_penalty",
                    g.cumulative_penalty,
                    w.cumulative_penalty,
                ),
                ("ss_after", g.ss_after, w.ss_after),
            ] {
                assert_eq!(g.to_bits(), w.to_bits(), "{what}: {name} of step {i}");
            }
        }
    }

    /// The scorer against the definition at every `max_steps` the callers
    /// use: none, one, a prefix, everything.
    fn assert_matches_reference(ctx: &EngineContext, model: &PenaltyModel, q: &Tpq) {
        for max_steps in [0, 1, 2, 64] {
            let budget = Budget::unlimited();
            let (got, got_report) = build_schedule_reported(ctx, model, q, max_steps, &budget);
            let (want, want_report) = reference_schedule(ctx, model, q, max_steps, &budget);
            let what = format!("{} at max_steps {max_steps}", q.to_xpath());
            assert_same_steps(&got, &want, &what);
            assert_eq!(got_report, want_report, "{what}: report");
        }
    }

    fn xmark_context() -> EngineContext {
        EngineContext::new(generate(&XmarkConfig::sized(256 * 1024, 1)))
    }

    const LEAF_AND: &str = "//mail[./text/keyword[.contains(\"signed\" and \"certificate\")]]";

    #[test]
    fn matches_the_definition_on_the_benchmark_queries() {
        let ctx = xmark_context();
        for text in [
            // structural_relax: Q1, Q2, Q3.
            "//item[./description/parlist]",
            "//item[./description/parlist and ./mailbox/mail/text]",
            "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and \
             ./keyword and ./emph] and ./name and ./incategory]",
            // fulltext_mix: single, and, or (at the root), phrase, inline leaf.
            "//item[./name[.contains(\"porcelain\")]]",
            "//mail[./text[.contains(\"signed\" and \"certificate\")]]",
            "//item[.contains(\"gold\" or \"antique\")]",
            "//listitem[./text[.contains(\"vintage rare\")]]",
            LEAF_AND,
            // serve_open_loop: the two `ft` requests.
            "//item[./description//text[.contains(\"vintage\" and \"rare\")]]",
            "//item[./description//text[.contains(\"gold\" or \"antique\")]]",
        ] {
            let q = parse_query(text).unwrap();
            let model = PenaltyModel::new(&q, WeightAssignment::uniform());
            assert_matches_reference(&ctx, &model, &q);
        }
    }

    #[test]
    fn matches_the_definition_on_every_oracle_case() {
        // Recursive tags, repeated labels on one path, wildcards, `//`
        // edges, a `contains` anywhere, a distinguished node below the root.
        for case in 0..20 * flexpath_reference::shapes::SHAPES {
            let (xml, q) = flexpath_reference::shapes::case(case);
            let (ctx, model) = setup(&xml, &q);
            assert_matches_reference(&ctx, &model, &q);
        }
    }

    #[test]
    fn matches_the_definition_on_the_shapes_the_tree_test_branches_on() {
        let ctx = EngineContext::new(
            parse(
                "<site><a id=\"1\"><b>gold <c>gold silver</c><d>silver</d></b><c>gold</c></a>\
                 <a id=\"2\"><x><b><y><c>gold</c></y></b></x><e><d>gold</d></e></a>\
                 <a><b>silver</b><e>gold</e></a></site>",
            )
            .unwrap(),
        );
        let gold = FtExpr::term("gold");
        // One expression carried by two nodes of one subtree: κ on the lower
        // one meets its copy on the parent, and the derived
        // `contains(ancestor, E)` has two sources.
        let mut b = TpqBuilder::new("a");
        let at_b = b.child(0, "b");
        let at_c = b.child(at_b, "c");
        b.add_contains(at_b, gold.clone());
        b.add_contains(at_c, gold.clone());
        let twice = b.build();
        // The same with the copies on siblings and a second expression.
        let mut b = TpqBuilder::new("a");
        let at_b = b.child(0, "b");
        let at_c = b.child(at_b, "c");
        let at_d = b.child(at_b, "d");
        b.add_contains(at_c, gold.clone());
        b.add_contains(at_d, gold);
        b.add_contains(at_d, FtExpr::term("silver"));
        b.set_distinguished(at_c);
        let siblings = b.build();
        let parsed = [
            // A wildcard node (no tag predicate, full-weight penalties).
            "//a/*[./c]",
            "//a[./*/c[.contains(\"gold\")]]",
            // An attribute predicate on a node λ deletes, and on the root.
            "//a[./b[@id = \"1\"]/c]",
            "//a[@id = \"1\" and ./b/c]",
            // Explicit `//` edges: `ad` in the logical form, not derived.
            "//a[.//b//c and .//d]",
            "//a[./b//c[.contains(\"gold\")] and .//e/d]",
        ]
        .map(|text| parse_query(text).unwrap());
        for q in [twice, siblings].iter().chain(&parsed) {
            let model = PenaltyModel::new(q, WeightAssignment::uniform());
            assert_matches_reference(&ctx, &model, q);
        }
    }

    #[test]
    fn matches_the_definition_under_weight_overrides() {
        let q = q1();
        let ctx = EngineContext::new(parse(crate::fixtures::ARTICLES).unwrap());
        let e = FtExpr::all_of(&["XML", "streaming"]);
        let weights = WeightAssignment::structural(2.5)
            .with_override(Predicate::Pc(Var(2), Var(3)), 0.25)
            .with_override(Predicate::Ad(Var(1), Var(4)), 4.0)
            .with_override(Predicate::Contains(Var(2), e), 3.0)
            // Weightless: never scored, never recorded as dropped.
            .with_override(Predicate::Pc(Var(1), Var(2)), 0.0)
            // A value predicate that carries weight is dropped by λ.
            .with_override(Predicate::Tag(Var(3), "algorithm".into()), 0.75);
        let model = PenaltyModel::new(&q, weights);
        assert_matches_reference(&ctx, &model, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        let dropped: Vec<&Predicate> = steps
            .iter()
            .flat_map(|s| s.new_dropped.iter().map(|(p, _)| p))
            .collect();
        assert!(dropped.contains(&&Predicate::Tag(Var(3), "algorithm".into())));
        assert!(!dropped.contains(&&Predicate::Pc(Var(1), Var(2))));

        // Likewise an attribute predicate, on a node λ deletes.
        let q = parse_query("//article[./section[@id = \"s1\"]/paragraph]").unwrap();
        let attr = q
            .logical()
            .iter()
            .find(|p| matches!(p, Predicate::Attr(..)))
            .cloned()
            .unwrap();
        let weights = WeightAssignment::uniform().with_override(attr.clone(), 0.5);
        let model = PenaltyModel::new(&q, weights);
        assert_matches_reference(&ctx, &model, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        assert!(steps
            .iter()
            .any(|s| s.new_dropped.iter().any(|(p, _)| *p == attr)));
    }

    #[test]
    fn one_build_asks_the_ft_cache_once_per_contains_predicate() {
        let ctx = xmark_context();
        let q = parse_query(LEAF_AND).unwrap();
        let model = PenaltyModel::new(&q, WeightAssignment::uniform());
        let contains_in_closure = q
            .closure()
            .iter()
            .filter(|p| matches!(p, Predicate::Contains(..)))
            .count() as u64;
        assert_eq!(contains_in_closure, 3);
        let before = ctx.ft_cache_stats();
        let steps = build_schedule(&ctx, &model, &q, 64);
        let after = ctx.ft_cache_stats();
        assert!(steps.len() > 2);
        assert_eq!(after.misses - before.misses, 1, "one cold evaluation");
        let lookups = (after.hits - before.hits) + (after.misses - before.misses);
        assert!(
            lookups <= contains_in_closure,
            "{lookups} FT-cache lookups for {contains_in_closure} contains predicates"
        );
    }

    #[test]
    fn a_trip_inside_the_first_contains_penalty_matches_the_definition() {
        let ctx = xmark_context();
        let q = parse_query(LEAF_AND).unwrap();
        let model = PenaltyModel::new(&q, WeightAssignment::uniform());
        let one_posting = || Budget::new(None, None, 1, u64::MAX);
        let (got_budget, want_budget) = (one_posting(), one_posting());
        let (got, got_report) = build_schedule_reported(&ctx, &model, &q, 64, &got_budget);
        let (want, want_report) = reference_schedule(&ctx, &model, &q, 64, &want_budget);
        assert_eq!(got_budget.tripped(), Some(ExhaustReason::PostingsBudget));
        assert_eq!(want_budget.tripped(), Some(ExhaustReason::PostingsBudget));
        // The step during which the budget tripped is completed from a
        // truncated evaluation (never used to rank); the checkpoint of the
        // next one stops the build.
        assert_eq!(got.len(), want.len());
        assert_eq!(got_report, want_report);
        let before_trip = got.len() - 1;
        assert_same_steps(&got[..before_trip], &want[..before_trip], "before the trip");
        // Neither side cached the truncated evaluation.
        assert_eq!(ctx.ft_cache_size(), 0);
    }

    #[test]
    fn schedule_is_penalty_monotone_in_cumulative_score() {
        let q = q1();
        let (ctx, model) = setup(TWO_ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        assert!(!steps.is_empty());
        let mut last_ss = model.base_structural_score(&q);
        for s in &steps {
            assert!(s.step_penalty >= 0.0);
            assert!(s.ss_after <= last_ss + 1e-12, "ss must not increase");
            last_ss = s.ss_after;
        }
    }

    #[test]
    fn schedule_drops_disjoint_predicate_sets() {
        let q = q1();
        let (ctx, model) = setup(TWO_ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        let mut seen = std::collections::HashSet::new();
        for s in &steps {
            for (p, _) in &s.new_dropped {
                assert!(seen.insert(p.clone()), "predicate {p} dropped twice");
            }
        }
    }

    #[test]
    fn schedule_reaches_full_relaxation() {
        let q = q1();
        let (ctx, model) = setup(TWO_ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        // The last query should be maximally relaxed: a single node with the
        // contains predicate promoted to the root.
        let final_q = &steps.last().unwrap().query;
        assert_eq!(final_q.node_count(), 1);
        assert_eq!(final_q.node(0).contains.len(), 1);
    }

    #[test]
    fn first_step_is_the_cheapest_available() {
        let q = q1();
        let (ctx, model) = setup(TWO_ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        // Recompute all first-step penalties by hand and compare.
        let mut penalties = Vec::new();
        for op in applicable_ops(&q) {
            let step = relaxation_step(&q, &op).unwrap();
            let p: f64 = step
                .dropped
                .iter()
                .filter(|p| model.weights().weight(p) > 0.0)
                .map(|p| model.penalty(&ctx, p, &Budget::unlimited()))
                .sum();
            penalties.push(p);
        }
        let min = penalties.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            (steps[0].step_penalty - min).abs() < 1e-12,
            "first step penalty {} ≠ min {}",
            steps[0].step_penalty,
            min
        );
    }

    #[test]
    fn max_steps_caps_the_schedule() {
        let q = q1();
        let (ctx, model) = setup(TWO_ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 2);
        assert_eq!(steps.len(), 2);
    }

    #[test]
    fn single_node_query_has_empty_schedule() {
        let q = TpqBuilder::new("article").build();
        let (ctx, model) = setup(TWO_ARTICLES, &q);
        assert!(build_schedule(&ctx, &model, &q, 64).is_empty());
    }

    #[test]
    fn cumulative_penalty_accumulates() {
        let q = q1();
        let (ctx, model) = setup(TWO_ARTICLES, &q);
        let steps = build_schedule(&ctx, &model, &q, 64);
        let mut acc = 0.0;
        for s in &steps {
            acc += s.step_penalty;
            assert!((s.cumulative_penalty - acc).abs() < 1e-9);
        }
    }
}
